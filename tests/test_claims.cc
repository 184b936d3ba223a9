/**
 * @file
 * The paper's shapes, checked: every scenario under scenarios/ that
 * carries a `claims` block runs at its own staging and seed, and each
 * claim must hold.  The claims are the figures' expected shapes (e.g.
 * "IQ 32 without LTP loses >10% on MLP-sensitive code, LTP (NU) loses
 * <7%"), with margins measured at that staging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

#ifndef LTP_SCENARIO_DIR
#define LTP_SCENARIO_DIR "scenarios"
#endif

namespace ltp {
namespace {

/** The scenario files with a `claims` block, sorted.  Checked on the
 *  raw JSON, so files needing recorded traces are never loaded. */
std::vector<std::string>
claimFiles()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(LTP_SCENARIO_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        if (parseJson(text.str()).object.count("claims"))
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(Claims, EveryScenarioClaimHolds)
{
    std::size_t checked = 0;
    for (const std::string &file : claimFiles()) {
        Scenario sc = loadScenarioFile(file);
        SweepResult result = Runner(0).run(sc.compile(0));
        for (const ScenarioClaim &c : sc.claims) {
            double v = c.value(result.grid);
            EXPECT_TRUE(c.holds(v))
                << file << ": " << c.what << " = " << v << ", want "
                << c.bounds();
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
} // namespace ltp
