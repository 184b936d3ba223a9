/**
 * @file
 * Classification inspector: for every static instruction of a kernel,
 * compare the oracle's dynamic classification statistics against the
 * state the hardware tables (UIT, hit/miss predictor) learn.
 *
 * This is the debugging lens used while reproducing the paper: if a PC
 * shows high oracle urgency but misses in the UIT (or vice versa), the
 * backward propagation is broken.
 *
 *   ./examples/classification_inspector [--kernel=graph_walk]
 */

#include <cstdio>

#include <map>

#include "common/cli.hh"
#include "common/table.hh"
#include "ltp/oracle.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"

using namespace ltp;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv, {{"kernel", "detail", "seed"}});
    std::string kernel = cli.str("kernel", "graph_walk");
    std::uint64_t seed = cli.integer("seed", 1);
    std::uint64_t n = cli.integer("detail", 40000);

    // Oracle statistics per PC.
    WorkloadPtr w = makeKernel(kernel);
    OracleClassification oracle = oracleClassify(*w, seed, n,
                                                 MemConfig{});
    struct PcStats
    {
        MicroOp op;
        std::uint64_t count = 0, urgent = 0, nonReady = 0, longLat = 0;
    };
    std::map<Addr, PcStats> pcs;
    WorkloadPtr scan = makeKernel(kernel);
    scan->reset(seed);
    for (SeqNum s = 0; s < n; ++s) {
        MicroOp op = scan->next();
        PcStats &st = pcs[op.pc];
        st.op = op;
        st.count += 1;
        st.urgent += oracle.urgent(s);
        st.nonReady += oracle.nonReady(s);
        st.longLat += oracle.longLatency(s);
    }

    // Learned state after an LTP run.
    RunLengths lengths = RunLengths::quick();
    Simulator sim(SimConfig::ltpProposal(LtpMode::NRNU).withSeed(seed),
                  kernel, lengths);
    sim.run();

    Table t({"instruction", "dyn count", "oracle U%", "oracle NR%",
             "oracle LL%", "UIT", "LL pred"});
    for (auto &[pc, st] : pcs) {
        bool uit = sim.core().uit().lookup(pc);
        bool pred = st.op.isLoad() && sim.core().llpred().predictLong(pc);
        auto pct = [&](std::uint64_t v) {
            return Table::num(100.0 * v / st.count, 0) + "%";
        };
        t.addRow({st.op.toString(), std::to_string(st.count),
                  pct(st.urgent), pct(st.nonReady), pct(st.longLat),
                  uit ? "urgent" : "-", pred ? "long" : "-"});
    }
    t.print(strprintf("oracle vs learned classification: %s",
                      kernel.c_str()));

    std::printf("\nllpred accuracy: %.3f | UIT hit rate: %.3f | "
                "branch pred: %.3f\n",
                sim.core().llpred().accuracy(),
                safeDiv(double(sim.core().uit().hits.value()),
                        double(sim.core().uit().lookups.value())),
                sim.core().branchPred().accuracy());
    return 0;
}
