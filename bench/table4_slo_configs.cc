/**
 * @file
 * Table 4: the most energy-efficient SLO-compliant configuration per
 * workload on NPU-D, found by the same search the paper's artifact
 * runs (sweep chips/batch, keep configs meeting 1x SLO, pick the
 * lowest energy per unit).
 */

#include "bench/bench_util.h"
#include "sim/slo.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Table 4",
                  "most energy-efficient SLO-compliant configs "
                  "(NPU-D)");

    TablePrinter t({"Workload", "Chips (search)", "Batch (search)",
                    "Chips (paper)", "Batch (paper)", "SLO",
                    "J/unit (NoPG)"});
    // SLO-search every workload in parallel on the shared sweep pool
    // (each search in turn fans its candidate setups out on the SLO
    // candidate pool); results come back in workload order.
    auto axis = bench::workloadAxis(models::allWorkloads());
    auto grid = bench::makeGrid(axis, {arch::NpuGeneration::D});
    auto results = bench::searchGrid(grid);
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &res = results.at(idx++);
        // The spec's declared setup: Table 4 for a paper workload.
        auto paper = models::scenarioSetup(*s.spec);
        t.addRow({s.name(),
                  std::to_string(res.setup.chips),
                  std::to_string(res.setup.batch),
                  std::to_string(paper.chips),
                  std::to_string(paper.batch),
                  TablePrinter::fmt(res.sloRatio, 0) + "x",
                  TablePrinter::eng(res.energyPerUnit, 3)});
    }
    t.print(std::cout);
    std::cout << "Search grid: chips x{1,2,4}, batch /{4,2,1} around "
                 "the Table 4 anchor; SLO = 5x default latency (§3)\n";
    return 0;
}
