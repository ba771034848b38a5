// Regenerates Table 3: runtime (ms) and edge throughput (MTEPS) for five
// primitives x six datasets x five systems:
//   CuSha-class (GAS full-sweep), MapGraph-class (GAS frontier), hardwired,
//   Ligra (CPU wall-clock), and Gunrock.
//
// Device engines report *simulated* device time (see DESIGN.md); Ligra rows
// are native wall-clock and marked with '*'. The comparison to read is the
// within-device-family shape: Gunrock ~ hardwired on BFS/SSSP/BC, Gunrock
// ~5x slower than hardwired CC, Gunrock ahead of the GAS-model engines.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  using namespace grx::bench;
  const Cli cli(argc, argv);
  const int shrink = shrink_from(cli, /*def=*/1);
  const auto graphs = load_all(shrink);
  const VertexId src = 0;

  struct Engine {
    std::string name;
    std::function<Cell(const Csr&, VertexId)> bfs, sssp, bc, cc, pr;
  };
  const std::vector<Engine> engines = {
      {"CuSha-class",
       [](const Csr& g, VertexId s) {
         return run_gas_bfs(g, s, gas::Flavor::kFullSweep);
       },
       [](const Csr& g, VertexId s) {
         return run_gas_sssp(g, s, gas::Flavor::kFullSweep);
       },
       nullptr,
       nullptr,
       [](const Csr& g, VertexId s) {
         return run_gas_pr(g, s, gas::Flavor::kFullSweep);
       }},
      {"MapGraph-class",
       [](const Csr& g, VertexId s) {
         return run_gas_bfs(g, s, gas::Flavor::kFrontier);
       },
       [](const Csr& g, VertexId s) {
         return run_gas_sssp(g, s, gas::Flavor::kFrontier);
       },
       nullptr,
       [](const Csr& g, VertexId s) {
         return run_gas_cc(g, s, gas::Flavor::kFrontier);
       },
       [](const Csr& g, VertexId s) {
         return run_gas_pr(g, s, gas::Flavor::kFrontier);
       }},
      {"Hardwired", run_hw_bfs, run_hw_sssp, run_hw_bc, run_hw_cc, nullptr},
      {"Ligra*", run_ligra_bfs, run_ligra_sssp, run_ligra_bc, run_ligra_cc,
       run_ligra_pr},
      {"Gunrock", run_engine_bfs, run_engine_sssp, run_engine_bc,
       run_engine_cc, run_engine_pr},
  };

  const std::vector<std::pair<std::string, int>> prims = {
      {"BFS", 0}, {"SSSP", 1}, {"BC", 2}, {"PageRank", 3}, {"CC", 4}};

  for (const auto& [pname, pid] : prims) {
    std::cout << "=== Table 3 (" << pname
              << "): runtime ms [lower is better]"
              << (pid <= 2 ? " and MTEPS [higher is better]" : "")
              << " (shrink=" << shrink << ") ===\n";
    std::vector<std::string> header{"dataset"};
    for (const auto& e : engines) header.push_back(e.name);
    if (pid <= 2)
      for (const auto& e : engines) header.push_back(e.name + " MTEPS");
    Table t(header);
    for (const auto& spec : datasets()) {
      const Csr& g = graphs.at(spec.name);
      std::vector<Cell> cells;
      for (const auto& e : engines) {
        const auto& fn = pid == 0   ? e.bfs
                         : pid == 1 ? e.sssp
                         : pid == 2 ? e.bc
                         : pid == 3 ? e.pr
                                    : e.cc;
        cells.push_back(fn ? fn(g, src) : Cell{});
      }
      std::vector<std::string> row{spec.name};
      for (const auto& c : cells) row.push_back(Table::num(c.runtime_ms, 3));
      if (pid <= 2)
        for (const auto& c : cells) row.push_back(Table::num(c.mteps, 1));
      t.add_row(std::move(row));
    }
    std::cout << t << '\n';
  }
  std::cout << "* Ligra rows are native CPU wall-clock on this host; device "
               "rows are simulated device time (DESIGN.md Section 2).\n";
  std::cout << "expected shape (paper): Gunrock ~ Hardwired on BFS/SSSP/BC; "
               "Gunrock ~5x slower than Hardwired on CC; Gunrock faster "
               "than MapGraph-class on all tests and than CuSha-class on "
               "BFS/SSSP.\n";
  return 0;
}
