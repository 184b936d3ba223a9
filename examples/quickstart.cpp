/**
 * @file
 * Quickstart: simulate one kernel on the Table 1 baseline and on the
 * paper's LTP proposal (IQ 32 / RF 96 + 128-entry 4-port NU-only LTP),
 * and print the comparison.
 *
 *   ./examples/quickstart [--kernel=indirect_stream_fp] [--detail=50000]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "sim/simulator.hh"

using namespace ltp;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv, {{"kernel", "detail", "seed"}});
    std::string kernel = cli.str("kernel", "indirect_stream_fp");

    RunLengths lengths;
    lengths.detail =
        static_cast<std::uint64_t>(cli.integer("detail", 50000));
    std::uint64_t seed = cli.integer("seed", 1);

    std::printf("LTP quickstart: kernel '%s', %llu detailed instructions\n",
                kernel.c_str(),
                static_cast<unsigned long long>(lengths.detail));

    Metrics base = Simulator::runOnce(
        SimConfig::baseline().withSeed(seed), kernel, lengths);
    Metrics small = Simulator::runOnce(
        SimConfig::baseline().withIq(32).withRegs(96).withSeed(seed)
            .withName("small-iq32-rf96"),
        kernel, lengths);
    Metrics ltp = Simulator::runOnce(
        SimConfig::ltpProposal().withSeed(seed), kernel, lengths);

    Table t({"config", "IPC", "perf vs base", "avg outstanding",
             "IQ occ", "RF occ", "LTP occ", "IQ/RF+LTP ED2P vs base"});
    auto row = [&](const Metrics &m) {
        t.addRow({m.config, Table::num(m.ipc, 3),
                  Table::pct(m.perfDeltaPct(base)),
                  Table::num(m.avgOutstanding, 2), Table::num(m.iqOcc, 1),
                  Table::num(m.rfOcc, 1), Table::num(m.ltpOcc, 1),
                  Table::pct(m.ed2pDeltaPct(base))});
    };
    row(base);
    row(small);
    row(ltp);
    t.print("baseline (Table 1) vs naive shrink vs LTP proposal");

    std::printf("\nThe LTP row should recover most of the naive-shrink "
                "performance loss\nwhile spending far less IQ/RF energy "
                "(Figure 10 of the paper).\n");
    return 0;
}
