/**
 * @file
 * MLP sensitivity explorer: applies the paper's Section 4.1 criteria
 * to every kernel in the suite and reports the measurements behind the
 * split (speedup IQ256/IQ32, outstanding-request ratio, average load
 * latency), then shows what LTP does for each kernel.
 *
 *   ./examples/mlp_explorer [--detail=30000]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "sim/mlp_class.hh"
#include "trace/suite.hh"

using namespace ltp;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv, {{"detail", "seed"}});
    RunLengths lengths = RunLengths::quick();
    lengths.detail = cli.integer("detail", 30000);
    std::uint64_t seed = cli.integer("seed", 1);

    Table t({"kernel", "class", "speedup 256/32", "outstanding ratio",
             "avg load lat", "LTP perf vs shrink", "parked frac"});

    for (const std::string &name : allKernelNames()) {
        MlpClassification c = classifyMlp(name, lengths, seed);

        Metrics shrink = Simulator::runOnce(
            SimConfig::baseline().withIq(32).withRegs(96).withSeed(seed),
            name, lengths);
        Metrics ltp = Simulator::runOnce(
            SimConfig::ltpProposal().withSeed(seed), name, lengths);

        t.addRow({name, c.sensitive ? "SENSITIVE" : "insensitive",
                  Table::num(c.speedup, 2),
                  Table::num(c.outstandingRatio, 2),
                  Table::num(c.avgLoadLatency, 1),
                  Table::pct(ltp.perfDeltaPct(shrink)),
                  Table::num(ltp.parkedFrac, 2)});
    }
    t.print("Section 4.1 MLP classification + LTP effect per kernel");

    std::printf("\nReading guide: SENSITIVE kernels meet all three "
                "criteria (latency > L2,\nspeedup > 5%%, outstanding "
                "+10%%).  'LTP perf vs shrink' compares the paper's\n"
                "proposal (IQ32/RF96+LTP) against the naive shrink "
                "(IQ32/RF96, no LTP).\n");
    return 0;
}
