/**
 * @file
 * Design-space exploration: sweep IQ size x LTP configuration for one
 * kernel and print an IPC / ED2P matrix — the kind of study Figure 10
 * distils.  Useful as a template for driving the library from your own
 * harness: declare every cell in a SweepSpec, shard it across the
 * Runner's pool, then read the grid.
 *
 *   ./examples/design_space [--kernel=bucket_shuffle] [--detail=30000]
 *                           [--mode=NU|NR|NRNU] [--threads=N]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "sim/runner.hh"

using namespace ltp;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv, {{"kernel", "detail", "seed", "mode", "threads"}});
    std::string kernel = cli.str("kernel", "bucket_shuffle");
    std::string mode_str = cli.str("mode", "NU");
    LtpMode mode = mode_str == "NRNU"
                       ? LtpMode::NRNU
                       : (mode_str == "NR" ? LtpMode::NR : LtpMode::NU);

    RunLengths lengths = RunLengths::quick();
    lengths.detail = cli.integer("detail", 30000);
    std::uint64_t seed = cli.integer("seed", 1);
    int threads = int(cli.integer("threads", 0));

    const std::vector<int> iq_sweep = {64, 48, 32, 24, 16};
    const std::vector<int> reg_sweep = {128, 96};

    // Declare the whole (IQ x regs x {off,on}) matrix plus the Table 1
    // baseline, then run it in one sharded pass.
    SweepSpec spec;
    spec.name = "design_space";
    spec.lengths = lengths;
    spec.add("base", "base", SimConfig::baseline().withSeed(seed),
             kernel);
    auto cell = [](int iq, int regs) {
        return std::to_string(iq) + "/" + std::to_string(regs);
    };
    for (int iq : iq_sweep) {
        for (int regs : reg_sweep) {
            spec.add(cell(iq, regs), "off",
                     SimConfig::baseline()
                         .withIq(iq)
                         .withRegs(regs)
                         .withSeed(seed),
                     kernel);
            spec.add(cell(iq, regs), "on",
                     SimConfig::ltpProposal(mode)
                         .withIq(iq)
                         .withRegs(regs)
                         .withSeed(seed),
                     kernel);
        }
    }
    SweepResult result = Runner(threads).run(spec);

    const Metrics &base = result.grid.at("base", "base");
    std::printf("kernel %s: Table-1 baseline IPC %.3f (%zu sims, %d "
                "threads, %.0f ms)\n",
                kernel.c_str(), base.ipc, result.simulations,
                result.threads, result.wallMs);

    Table t({"IQ", "regs", "no-LTP IPC", "LTP IPC", "LTP perf vs base",
             "LTP ED2P vs base", "parked", "in LTP"});
    for (int iq : iq_sweep) {
        for (int regs : reg_sweep) {
            const Metrics &off = result.grid.at(cell(iq, regs), "off");
            const Metrics &on = result.grid.at(cell(iq, regs), "on");
            t.addRow({std::to_string(iq), std::to_string(regs),
                      Table::num(off.ipc, 3), Table::num(on.ipc, 3),
                      Table::pct(on.perfDeltaPct(base)),
                      Table::pct(on.ed2pDeltaPct(base)),
                      Table::num(on.parkedFrac, 2),
                      Table::num(on.ltpOcc, 1)});
        }
    }
    t.print(strprintf("design space for %s (LTP mode %s)",
                      kernel.c_str(), ltpModeName(mode)));
    return 0;
}
