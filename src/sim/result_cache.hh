/**
 * @file
 * Content-addressed, on-disk Metrics store.
 *
 * Entries live under a cache root (default `~/.cache/ltp`, overridable
 * with --cache-dir or $LTP_CACHE_DIR), sharded by the first two digest
 * byte pairs — `aa/bb/<64-hex-key>.json` — so no directory ever holds
 * more than a few hundred files even at millions of entries.  Writes
 * go through a temp file + atomic rename, so concurrent writers
 * (pool workers, serve clients, parallel CI jobs) can never expose a
 * torn entry; the worst case is both computing the same cell and one
 * rename winning, which is harmless because entries are value-equal by
 * construction.
 *
 * Every entry is double schema-versioned: the envelope carries
 * kCacheSchemaVersion, the embedded Metrics its own schemaVersion.
 * Any mismatch, parse error, or key disagreement reads as a miss (and
 * is reclaimed by `ltp cache gc`), never as wrong data.
 */

#ifndef LTP_SIM_RESULT_CACHE_HH
#define LTP_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cell_key.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"

namespace ltp {

/** Envelope format version; bump on any layout change. */
inline constexpr int kCacheSchemaVersion = 1;

/** One on-disk entry, as listed by `ltp cache ls`. */
struct CacheEntryInfo
{
    std::string key;      ///< 64-hex cell key (file stem)
    std::string config;   ///< SimConfig::name at store time
    std::string workload; ///< content identity (cell_key.hh)
    std::uint64_t funcWarm = 0;
    std::uint64_t pipeWarm = 0;
    std::uint64_t detail = 0;
    std::uint64_t bytes = 0;
    bool valid = false;   ///< parses + schema versions accepted
};

/** Aggregate numbers for `ltp cache stat`. */
struct CacheStats
{
    std::uint64_t entries = 0;
    std::uint64_t invalid = 0; ///< unreadable or schema-mismatched
    std::uint64_t bytes = 0;
};

/** A content-addressed Metrics store rooted at one directory. */
class ResultCache
{
  public:
    /** @p dir empty selects defaultDir().  The directory is created
     *  lazily on first store, so a read-only sweep never mkdirs. */
    explicit ResultCache(const std::string &dir = "");

    /** $LTP_CACHE_DIR, else $XDG_CACHE_HOME/ltp, else ~/.cache/ltp. */
    static std::string defaultDir();

    const std::string &dir() const { return dir_; }

    /** @return true and fill @p out on a valid entry for @p key.  A
     *  key that is not 64 lowercase hex digits is a miss. */
    bool lookup(const CellKey &key, Metrics *out) const;

    /** Persist @p m under @p key (atomic rename; last writer wins).
     *  A key that is not 64 lowercase hex digits stores nothing. */
    void store(const CellKey &key, const SimConfig &cfg,
               const RunLengths &lengths, const Metrics &m) const;

    /** Every entry on disk, sorted by key; invalid ones flagged. */
    std::vector<CacheEntryInfo> list() const;

    CacheStats stats() const;

    /**
     * Remove invalid entries, plus valid ones older than @p maxAgeDays
     * (0 = no age limit), then — if @p maxBytes is nonzero and the
     * surviving entries still exceed it — evict oldest-mtime-first
     * until the total fits.  @return entries removed.
     */
    std::size_t gc(double maxAgeDays = 0.0,
                   std::uint64_t maxBytes = 0) const;

    /** Remove every entry.  @return entries removed. */
    std::size_t clear() const;

  private:
    std::string entryPath(const std::string &hexKey) const;

    std::string dir_;
};

} // namespace ltp

#endif // LTP_SIM_RESULT_CACHE_HH
