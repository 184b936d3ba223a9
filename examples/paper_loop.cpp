/**
 * @file
 * Walkthrough of the paper's running example (Figures 2 and 3).
 *
 * Shows, step by step:
 *   1. the example loop's micro-ops and their dependence structure;
 *   2. the oracle classification (ground truth per Figure 2);
 *   3. the classification the hardware *learns* (UIT + backward
 *      propagation) and how many loop iterations that takes;
 *   4. the end-to-end effect: IQ occupancy and MLP with and without
 *      parking, on a deliberately small IQ (Figure 3's illustration).
 *
 *   ./examples/paper_loop [--iterations=200]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "ltp/oracle.hh"
#include "sim/runner.hh"
#include "trace/kernels.hh"

using namespace ltp;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv, {{"iterations", "threads"}});
    int iters = int(cli.integer("iterations", 200));
    int threads = int(cli.integer("threads", 0));

    // ---- 1. the loop itself -------------------------------------------
    std::printf("The paper's example loop (Figure 2):\n"
                "    for (i = 0; i < 10,000; i++) {\n"
                "        d = B[A[j--]];   // B misses, A hits\n"
                "        C[i] = d + 5;    // C hits\n"
                "    }\n\n");

    WorkloadPtr w = makePaperLoop();
    w->reset(1);
    std::vector<MicroOp> body;
    for (int s = 0; s < 11; ++s)
        body.push_back(w->next());

    // ---- 2. oracle classification -------------------------------------
    WorkloadPtr w2 = makePaperLoop();
    OracleClassification oracle =
        oracleClassify(*w2, 1, 11ull * (iters + 50), MemConfig{});

    // ---- 3. learned classification ------------------------------------
    RunLengths lengths;
    lengths.funcWarm = 11ull * 50;
    lengths.pipeWarm = 500;
    lengths.detail = 11ull * iters;
    Simulator sim(SimConfig::ltpProposal(), "paper_loop", lengths);
    sim.run();

    const char *names = "ABCDEFGHIJK";
    Table t({"slot", "instruction", "oracle", "learned UIT"});
    for (int s = 0; s < 11; ++s) {
        SeqNum mid = 11ull * (iters / 2) + s; // steady-state instance
        std::string ocls =
            std::string(oracle.urgent(mid) ? "U" : "NU") + "+" +
            (oracle.nonReady(mid) ? "NR" : "R") +
            (oracle.longLatency(mid) ? " (LL)" : "");
        bool urgent = sim.core().uit().lookup(body[s].pc);
        t.addRow({std::string(1, names[s]), body[s].toString(), ocls,
                  urgent ? "Urgent" : "Non-Urgent"});
    }
    t.print("Classification: oracle vs learned (must match Figure 2)");

    // ---- 4. the Figure 3 effect ---------------------------------------
    auto tiny = [&](SimConfig cfg, const char *name) {
        return cfg.withIq(8)
            .withRegs(kInfiniteSize)
            .withLq(kInfiniteSize)
            .withSq(kInfiniteSize)
            .withName(name);
    };
    SweepSpec spec;
    spec.name = "paper_loop_fig3";
    spec.lengths = lengths;
    spec.add("fig3", "traditional",
             tiny(SimConfig::baseline(), "traditional, IQ:8"),
             "paper_loop");
    spec.add("fig3", "ltp", tiny(SimConfig::ltpProposal(), "LTP, IQ:8"),
             "paper_loop");
    SweepResult fig3 = Runner(threads).run(spec);
    const Metrics &trad = fig3.grid.at("fig3", "traditional");
    const Metrics &ltp = fig3.grid.at("fig3", "ltp");

    Table fx({"pipeline", "IPC", "MLP (outstanding)", "IQ in use",
              "in LTP"});
    for (const Metrics &m : {trad, ltp})
        fx.addRow({m.config, Table::num(m.ipc, 3),
                   Table::num(m.avgOutstanding, 2),
                   Table::num(m.iqOcc, 1), Table::num(m.ltpOcc, 1)});
    fx.print("Figure 3: the IQ fills with Non-Ready work unless parked");

    std::printf("\nWith parking, the F/H-class instructions wait in the "
                "LTP queue instead of\nthe IQ, so further iterations can "
                "issue their urgent loads: MLP %.1fx.\n",
                safeDiv(ltp.avgOutstanding, trad.avgOutstanding));
    return 0;
}
