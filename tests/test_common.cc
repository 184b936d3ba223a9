/**
 * @file
 * Unit tests for the common substrate: stats, RNG, tables, CLI, types,
 * binary I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/ring.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/timing_wheel.hh"
#include "common/types.hh"
#include "sim/fields.hh"

namespace ltp {
namespace {

TEST(BinIo, LittleEndianRoundTrip)
{
    std::string b;
    putU8(b, 0xab);
    putU16le(b, 0x1234);
    putU32le(b, 0xdeadbeefu);
    putU64le(b, 0x0123456789abcdefull);
    ASSERT_EQ(b.size(), 1u + 2 + 4 + 8);
    // Explicit little-endian byte order on the wire.
    EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x34);
    EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x12);
    ByteReader r(b);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, ReaderBoundsChecked)
{
    std::string b = "abc";
    EXPECT_THROW((void)ByteReader(b).u32(), std::runtime_error);
    ByteReader r(b);
    r.skip(3);
    EXPECT_THROW((void)r.u8(), std::runtime_error);
    // A construction offset past the end must not wrap the check.
    ByteReader past(b, b.size() + 1);
    EXPECT_EQ(past.remaining(), 0u);
    EXPECT_THROW((void)past.u8(), std::runtime_error);
    EXPECT_THROW((void)ByteReader(b, 2).raw(2), std::runtime_error);
}

TEST(BinIo, Crc32KnownVectors)
{
    // The classic check value for "123456789" (IEEE 802.3).
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    // Incremental == one-shot.
    Crc32 inc;
    inc.update("1234");
    inc.update("56789");
    EXPECT_EQ(inc.value(), 0xcbf43926u);
}

TEST(Types, BlockAlign)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(130), 128u);
}

TEST(Types, InfiniteSentinel)
{
    EXPECT_TRUE(isInfinite(kInfiniteSize));
    EXPECT_TRUE(isInfinite(kInfiniteSize + 5));
    EXPECT_FALSE(isInfinite(256));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng r(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(Counter, Accumulates)
{
    Counter c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, MeanAndReset)
{
    Average a;
    a.sample(1.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.count(), 2u);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(OccupancyStat, ExactIntegration)
{
    OccupancyStat occ;
    occ.set(2, 0);   // level 2 over [0,10)
    occ.set(6, 10);  // level 6 over [10,20)
    EXPECT_DOUBLE_EQ(occ.mean(20), (2 * 10 + 6 * 10) / 20.0);
}

TEST(OccupancyStat, AddSub)
{
    OccupancyStat occ;
    occ.add(3, 0);
    occ.sub(1, 5);
    EXPECT_EQ(occ.level(), 2);
    EXPECT_DOUBLE_EQ(occ.mean(10), (3 * 5 + 2 * 5) / 10.0);
}

TEST(OccupancyStat, ResetKeepsLevel)
{
    OccupancyStat occ;
    occ.set(4, 0);
    occ.reset(100);
    EXPECT_EQ(occ.level(), 4);
    EXPECT_DOUBLE_EQ(occ.mean(110), 4.0);
}

TEST(SafeDiv, ZeroDenominator)
{
    EXPECT_DOUBLE_EQ(safeDiv(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeDiv(6.0, 2.0), 3.0);
}

TEST(Table, RendersAllRows)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::string s = t.toString();
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bb"), std::string::npos);
    std::string csv = t.toCsv();
    EXPECT_NE(csv.find("a,bb"), std::string::npos);
    EXPECT_NE(csv.find("333,4"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(-12.345, 1), "-12.3%");
    EXPECT_EQ(Table::pct(4.2, 1), "+4.2%");
}

TEST(Cli, ParsesForms)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta", "7", "--gamma"};
    Cli cli(5, const_cast<char **>(argv), {{"alpha", "beta", "gamma"}});
    EXPECT_EQ(cli.integer("alpha", 0), 3);
    EXPECT_EQ(cli.integer("beta", 0), 7);
    EXPECT_TRUE(cli.flag("gamma"));
    EXPECT_EQ(cli.integer("missing", 9), 9);
    EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, RepeatedFlagsCollectInOrder)
{
    const char *argv[] = {"prog", "--set=a=1", "--set", "b=2",
                          "--set=c=3"};
    Cli cli(5, const_cast<char **>(argv), {{"set"}});
    EXPECT_EQ(cli.list("set"),
              (std::vector<std::string>{"a=1", "b=2", "c=3"}));
    // The scalar accessor sees the last occurrence.
    EXPECT_EQ(cli.str("set", ""), "c=3");
    EXPECT_TRUE(cli.list("missing").empty());
}

TEST(CliDeathTest, HelpPrintsKnownFlagsAndExitsZero)
{
    const char *argv[] = {"prog", "--help"};
    EXPECT_EXIT(
        {
            Cli cli(2, const_cast<char **>(argv), {{"alpha", "beta"}});
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, UnknownFlagStaysFatal)
{
    const char *argv[] = {"prog", "--alhpa=3"};
    EXPECT_EXIT(
        {
            Cli cli(2, const_cast<char **>(argv), {{"alpha"}});
        },
        ::testing::ExitedWithCode(1), "unknown flag --alhpa");
}

TEST(Cli, NumericFormsParseInFull)
{
    const char *argv[] = {"prog", "--a=+12", "--b=0x10", "--c=2.5e3",
                          "--d=7", "--e=0", "--f=0x1F"};
    Cli cli(7, const_cast<char **>(argv),
            {{"a", "b", "c", "d", "e", "f"}});
    EXPECT_EQ(cli.integer("a", 0), 12);
    EXPECT_EQ(cli.integer("b", 0), 16);
    EXPECT_EQ(cli.integer("e", 7), 0);
    EXPECT_EQ(cli.integer("f", 0), 31);
    EXPECT_DOUBLE_EQ(cli.real("c", 0.0), 2500.0);
    EXPECT_DOUBLE_EQ(cli.real("d", 0.0), 7.0);
}

TEST(CliDeathTest, MalformedNumbersAreFatalAndNameTheFlag)
{
    struct Case
    {
        const char *arg;
        bool real;
        const char *message;
    };
    const Case cases[] = {
        {"--detail=2k", false, "--detail expects an integer, got '2k'"},
        {"--seed=abc", false, "--seed expects an integer, got 'abc'"},
        {"--detail=", false, "--detail expects an integer"},
        {"--detail=1.5", false, "--detail expects an integer"},
        // strtoll base 0 would read these as octal 64 and 8 (and
        // reject 08); a leading zero is an error instead.
        {"--detail=0100", false, "--detail expects an integer, got '0100'"},
        {"--seed=010", false, "--seed expects an integer, got '010'"},
        {"--seed=08", false, "--seed expects an integer, got '08'"},
        {"--detail= 5", false, "--detail expects an integer"},
        {"--detail=0x", false, "--detail expects an integer"},
        {"--detail=99999999999999999999", false,
         "--detail expects an integer"},
        // Every integer flag counts something: no negative values.
        {"--detail=-1", false,
         "--detail expects a non-negative integer, got '-1'"},
        {"--seed=-12", false,
         "--seed expects a non-negative integer, got '-12'"},
        {"--detail=-0x1F", false,
         "--detail expects a non-negative integer, got '-0x1F'"},
        {"--rtol=0.1x", true, "--rtol expects a number, got '0.1x'"},
        {"--rtol=nan", true, "--rtol expects a number"},
    };
    for (const Case &c : cases) {
        const char *argv[] = {"prog", c.arg};
        Cli cli(2, const_cast<char **>(argv), {{"detail", "seed", "rtol"}});
        std::string key = std::string(c.arg).substr(
            2, std::string(c.arg).find('=') - 2);
        if (c.real)
            EXPECT_EXIT(cli.real(key, 0.0), ::testing::ExitedWithCode(1),
                        c.message)
                << c.arg;
        else
            EXPECT_EXIT(cli.integer(key, 0), ::testing::ExitedWithCode(1),
                        c.message)
                << c.arg;
    }
}

TEST(Cli, SwitchesAndOnePositional)
{
    // A switch never takes the next token, so `--verify dir` leaves
    // the positional alone; a value flag still does.
    const char *argv[] = {"prog", "--verify", "traces", "--mode", "NU"};
    CliSpec spec{{"mode"}, {"verify"}, Positional::Required, "<dir>", ""};
    Cli cli(5, const_cast<char **>(argv), spec);
    EXPECT_TRUE(cli.flag("verify"));
    EXPECT_EQ(cli.positional(), "traces");
    EXPECT_EQ(cli.str("mode", ""), "NU");

    const char *off[] = {"prog", "--verify=0"};
    spec.positional = Positional::Optional;
    Cli quiet(2, const_cast<char **>(off), spec);
    EXPECT_FALSE(quiet.flag("verify"));
    EXPECT_EQ(quiet.positional(), "");
}

TEST(CliDeathTest, PositionalArityIsEnforced)
{
    CliSpec none{{"mode"}, {}, Positional::None, "", ""};
    const char *stray[] = {"prog", "extra"};
    EXPECT_EXIT(Cli(2, const_cast<char **>(stray), none),
                ::testing::ExitedWithCode(1),
                "unexpected positional argument 'extra'");

    CliSpec one{{"mode"}, {}, Positional::Required, "<file>", ""};
    const char *two[] = {"prog", "a", "b"};
    EXPECT_EXIT(Cli(3, const_cast<char **>(two), one),
                ::testing::ExitedWithCode(1),
                "unexpected extra argument 'b' \\(already got 'a'\\)");
    const char *missing[] = {"prog", "--mode=NU"};
    EXPECT_EXIT(Cli(2, const_cast<char **>(missing), one),
                ::testing::ExitedWithCode(1), "prog needs <file>");
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 5, "z"), "x=5 y=z");
    EXPECT_EQ(strprintf("empty"), "empty");
}

// ---------------------------------------------------------------------
// Ring buffer

TEST(Ring, PushPopBothEndsAndIndexing)
{
    Ring<int> r(4);
    EXPECT_TRUE(r.empty());
    r.push_back(1);
    r.push_back(2);
    r.push_back(3);
    EXPECT_EQ(r.front(), 1);
    EXPECT_EQ(r.back(), 3);
    EXPECT_EQ(r[1], 2);
    r.pop_front();
    EXPECT_EQ(r.front(), 2);
    r.push_front(0);
    EXPECT_EQ(r.front(), 0);
    EXPECT_EQ(r.size(), 3u);
    r.pop_back();
    EXPECT_EQ(r.back(), 2);
    EXPECT_EQ(r.size(), 2u);
}

TEST(Ring, GrowsPastCapacityHintPreservingOrder)
{
    Ring<int> r(2);
    // Force wraparound before growth: cycle the head off zero.
    r.push_back(-1);
    r.pop_front();
    for (int i = 0; i < 100; ++i)
        r.push_back(i);
    ASSERT_EQ(r.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r[std::size_t(i)], i);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, MixedEndTrafficWrapsCleanly)
{
    Ring<int> r(4);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 3; ++i)
            r.push_back(next_in++);
        for (int i = 0; i < 2; ++i) {
            EXPECT_EQ(r.front(), next_out);
            r.pop_front();
            next_out += 1;
        }
    }
    EXPECT_EQ(r.size(), std::size_t(next_in - next_out));
}

TEST(Ring, InterleavedStreamsStayFifoAcrossWraps)
{
    // SMT-style use: two logical streams (tid 0 / tid 1) share one
    // ring, pushed and popped at different rates, so entries of both
    // streams straddle every wrap boundary.  Each stream must still
    // come out in its own FIFO order.
    struct Entry
    {
        int tid;
        int value;
    };
    Ring<Entry> r(4); // small capacity: wraps and grows repeatedly
    int next_in[2] = {0, 0};
    int next_out[2] = {0, 0};
    int pending = 0;
    for (int round = 0; round < 200; ++round) {
        // Uneven production: stream 0 pushes two, stream 1 pushes one.
        r.push_back(Entry{0, next_in[0]++});
        r.push_back(Entry{1, next_in[1]++});
        r.push_back(Entry{0, next_in[0]++});
        pending += 3;
        // Drain two per round, whichever stream is at the head.
        for (int i = 0; i < 2; ++i) {
            Entry e = r.front();
            r.pop_front();
            pending -= 1;
            ASSERT_EQ(e.value, next_out[e.tid]) << "round " << round;
            next_out[e.tid] += 1;
        }
    }
    EXPECT_EQ(r.size(), std::size_t(pending));
    while (!r.empty()) {
        Entry e = r.front();
        r.pop_front();
        EXPECT_EQ(e.value, next_out[e.tid]);
        next_out[e.tid] += 1;
    }
    EXPECT_EQ(next_out[0], next_in[0]);
    EXPECT_EQ(next_out[1], next_in[1]);
}

TEST(Ring, ClearMidIterationResetsForReuse)
{
    // A squash can clear a queue while a stage is walking it by
    // index; the walk must stop at the (now zero) size and the ring
    // must be immediately reusable, wherever the head had wrapped to.
    Ring<int> r(4);
    for (int spin = 0; spin < 7; ++spin) {
        // Rotate the head off zero before filling.
        r.push_back(-1);
        r.pop_front();
        for (int i = 0; i < 5; ++i)
            r.push_back(i);
        std::size_t visited = 0;
        for (std::size_t i = 0; i < r.size(); ++i) {
            visited += 1;
            if (i == 2) {
                r.clear();
                // Size is re-read by the loop condition: the walk
                // terminates instead of indexing freed slots.
            }
        }
        EXPECT_EQ(visited, 3u);
        EXPECT_TRUE(r.empty());
        EXPECT_EQ(r.size(), 0u);
        // Reuse after clear: order is fresh.
        r.push_back(10);
        r.push_front(9);
        EXPECT_EQ(r.front(), 9);
        EXPECT_EQ(r.back(), 10);
        r.pop_front();
        r.pop_front();
        EXPECT_TRUE(r.empty());
    }
}

TEST(Ring, CapacityAssertsOnEmptyPops)
{
    // sim_assert is compiled into release builds: popping an empty
    // ring must die loudly, not corrupt the head index.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Ring<int> r(2);
    EXPECT_DEATH(r.pop_front(), "assertion failed");
    EXPECT_DEATH(r.pop_back(), "assertion failed");
    r.push_back(1);
    r.pop_front();
    EXPECT_DEATH(r.pop_front(), "assertion failed");
    // After surviving the (forked) death tests, the parent's ring is
    // still coherent.
    r.push_back(2);
    EXPECT_EQ(r.front(), 2);
}

// ---------------------------------------------------------------------
// TimingWheel: exact next-event queries and empty-span jumps.

TEST(TimingWheel, EmptyWheelHasNoNextEventAndJumps)
{
    TimingWheel<int> w;
    EXPECT_EQ(w.nextEventCycle(), kCycleNever);
    int fired = 0;
    w.advanceTo(1000000, [&](int) { fired += 1; });
    EXPECT_EQ(w.now(), 1000000u);
    EXPECT_EQ(fired, 0);
}

TEST(TimingWheel, LevelOneEntryCanPrecedeLevelZero)
{
    TimingWheel<int> w;
    std::vector<std::pair<int, Cycle>> fired;
    auto record = [&](int ev) { fired.emplace_back(ev, w.now()); };
    w.schedule(520, 1); // epoch 2, over a revolution out: level 1
    w.advanceTo(300, record);
    w.schedule(540, 2); // 240 cycles out: level 0, yet fires later
    EXPECT_EQ(w.nextEventCycle(), 520u);
    w.advanceTo(519, record);
    EXPECT_TRUE(fired.empty());
    w.advanceTo(600, record);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], std::make_pair(1, Cycle(520)));
    EXPECT_EQ(fired[1], std::make_pair(2, Cycle(540)));
    EXPECT_EQ(w.nextEventCycle(), kCycleNever);
}

TEST(TimingWheel, EmptySpanAdvanceReachesOverflowEvent)
{
    TimingWheel<int> w;
    w.schedule(100000, 7); // beyond both levels: the overflow list
    EXPECT_EQ(w.nextEventCycle(), 100000u);
    int fired = 0;
    w.advanceTo(99999, [&](int) { fired += 1; });
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(w.nextEventCycle(), 100000u);
    w.advanceTo(100000, [&](int ev) {
        EXPECT_EQ(ev, 7);
        EXPECT_EQ(w.now(), 100000u);
        fired += 1;
    });
    EXPECT_EQ(fired, 1);
}

TEST(TimingWheel, RandomTrafficMatchesReferenceSchedule)
{
    Rng rng(11);
    TimingWheel<int> w;
    std::vector<std::pair<Cycle, int>> pending; // reference: (when, id)
    int next_id = 0;
    for (int step = 0; step < 4000; ++step) {
        Cycle now = w.now();
        int n = int(rng.below(3));
        for (int i = 0; i < n; ++i) {
            Cycle when = now + (rng.chance(0.1) ? rng.below(200000)
                                                : rng.below(600));
            w.schedule(when, next_id);
            pending.emplace_back(std::max(when, now + 1), next_id);
            next_id += 1;
        }
        Cycle expect_next = kCycleNever;
        for (const auto &p : pending)
            expect_next = std::min(expect_next, p.first);
        ASSERT_EQ(w.nextEventCycle(), expect_next) << "step " << step;

        Cycle to = now + (rng.chance(0.5) ? 1 : rng.below(3000));
        w.advanceTo(to, [&](int ev) {
            auto it = std::find_if(
                pending.begin(), pending.end(),
                [ev](const std::pair<Cycle, int> &p) {
                    return p.second == ev;
                });
            ASSERT_NE(it, pending.end());
            EXPECT_EQ(it->first, w.now()) << "event " << ev;
            pending.erase(it);
        });
        for (const auto &p : pending)
            ASSERT_GT(p.first, to) << "event " << p.second << " missed";
        ASSERT_EQ(w.size(), pending.size());
    }
}

// ---------------------------------------------------------------------------
// JSON reader limits and the field-table codec
// ---------------------------------------------------------------------------

TEST(Json, NestingIsBoundedAndNamesTheOffset)
{
    std::string at_limit = std::string(kJsonMaxDepth, '[') +
                           std::string(kJsonMaxDepth, ']');
    EXPECT_NO_THROW(parseJson(at_limit));

    // Deep enough to overflow the stack of an unbounded reader.
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"k\": ";
    for (const std::string &deep :
         {std::string(200000, '['), std::string(kJsonMaxDepth + 1, '['),
          objects}) {
        try {
            parseJson(deep);
            ADD_FAILURE() << "nesting of " << deep.size() << " accepted";
        } catch (const std::runtime_error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("nesting deeper than"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
        }
    }
}

struct FieldsRecord
{
    std::uint64_t count = 5;
    int width = 2;
    double rate = 0.25;
    std::string name = "n";

    std::array<Field, 4>
    fields()
    {
        return {Field{"count", FieldKind::U64, &count, 1},
                Field{"inner.width", FieldKind::Int, &width, 1},
                Field{"inner.rate", FieldKind::Double, &rate},
                Field{"name", FieldKind::String, &name}};
    }
};

TEST(Fields, ValueTreeMatchesTheTextWriter)
{
    FieldsRecord r;
    r.width = kInfiniteSize;
    r.rate = 1.0 / 3.0;
    JsonObjectBuilder o;
    writeFields(o, r.fields(), 0);
    EXPECT_EQ(writeJsonCompact(fieldsToValue(r.fields())),
              writeJsonCompact(parseJson(o.render(0))));
    EXPECT_EQ(writeJsonCompact(fieldsToValue(r.fields())),
              "{\"count\":5,\"inner\":{\"rate\":0.33333333333333331,"
              "\"width\":\"inf\"},\"name\":\"n\"}");
}

TEST(Fields, StrictReaderNamesTheDottedPath)
{
    FieldsRecord r;
    applyFields(r.fields(),
                parseJson("{\"inner\": {\"width\": 7}, \"inner.rate\": 2}"),
                "at");
    EXPECT_EQ(r.width, 7);
    EXPECT_EQ(r.rate, 2.0);
    EXPECT_EQ(r.count, 5u); // absent: unchanged

    auto error = [](const std::string &json) {
        FieldsRecord scratch;
        try {
            applyFields(scratch.fields(), parseJson(json), "at");
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_NE(error("{\"inner\": {\"depth\": 1}}").find("'at.inner.depth'"),
              std::string::npos);
    EXPECT_NE(error("{\"inner\": 3}").find("object at at.inner"),
              std::string::npos);
    EXPECT_NE(error("[]").find("object at at"), std::string::npos);
    // Row minimums hold for U64 rows too.
    EXPECT_NE(error("{\"count\": 0}").find("at.count must be at least 1"),
              std::string::npos);
    EXPECT_NE(error("{\"inner\": {\"width\": 0}}")
                  .find("at.inner.width must be at least 1"),
              std::string::npos);
}

TEST(Fields, TolerantReaderSkipsUnknownAndAbsentKeys)
{
    FieldsRecord r;
    readFields(r.fields(), parseJson("{\"name\": \"x\", \"extra\": [1]}"));
    EXPECT_EQ(r.name, "x");
    EXPECT_EQ(r.count, 5u);
    FieldsRecord bad;
    try {
        readFields(bad.fields(), parseJson("{\"count\": \"many\"}"), "blk");
        ADD_FAILURE() << "a string count was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("blk.count"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace ltp
