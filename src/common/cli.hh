/**
 * @file
 * Minimal command-line flag parser for the bench, tool, and example
 * binaries.
 *
 * Supports `--key=value` and `--key value` forms plus boolean switches
 * (`--fast`), and at most one bare positional argument when the spec
 * allows it.  `--help` (or `-h`) prints the known-flag set and exits
 * with status 0; any other unknown flag is fatal so typos in experiment
 * scripts cannot silently fall back to defaults, and so is a numeric
 * flag whose value does not parse in full.
 */

#ifndef LTP_COMMON_CLI_HH
#define LTP_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ltp {

/** Whether a command line takes its one bare argument. */
enum class Positional { None, Optional, Required };

/** Everything a command line may contain. */
struct CliSpec
{
    std::set<std::string> flags = {}; ///< `--key=value`, `--key value`
    std::set<std::string> switches = {}; ///< `--key`, never takes a value
    Positional positional = Positional::None;
    std::string positionalName = {}; ///< "<file>", or "[<file>]" if optional
    std::string summary = {};        ///< printed by --help first
};

/** Parsed command line with typed accessors and defaults. */
class Cli
{
  public:
    /**
     * Parse argv against @p spec.  A flag outside the spec, a missing
     * required positional or a second positional terminates with
     * fatal(); `--help` prints usage and exits 0.
     */
    Cli(int argc, char **argv, const CliSpec &spec);

    bool has(const std::string &key) const;
    std::string str(const std::string &key, const std::string &dflt) const;
    /** Numeric accessors; fatal, naming the flag, unless the whole
     *  value parses.  Integers are non-negative, decimal or 0x hex; a
     *  leading zero is rejected rather than read as octal. */
    std::int64_t integer(const std::string &key, std::int64_t dflt) const;
    double real(const std::string &key, double dflt) const;
    bool flag(const std::string &key) const;

    /** Every value of a repeatable flag (e.g. `--set a=1 --set b=2`),
     *  in command-line order; empty if absent. */
    std::vector<std::string> list(const std::string &key) const;

    /** The bare argument; empty when none was given. */
    const std::string &positional() const { return positional_; }

  private:
    /** Scalar accessors read the last occurrence of a flag. */
    const std::string *last(const std::string &key) const;

    std::map<std::string, std::vector<std::string>> values_;
    std::string positional_;
};

} // namespace ltp

#endif // LTP_COMMON_CLI_HH
