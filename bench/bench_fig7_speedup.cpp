// Regenerates Figure 7: the speedup dot matrix — Gunrock vs five other
// systems on six inputs for each primitive. A cell > 1 means Gunrock is
// faster (the paper's black dots); < 1 means slower (white dots).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  using namespace grx::bench;
  const Cli cli(argc, argv);
  const int shrink = shrink_from(cli, /*def=*/1);
  const auto graphs = load_all(shrink);
  const VertexId src = 0;

  using Fn = std::function<Cell(const Csr&, VertexId)>;
  struct System {
    std::string name;
    Fn bfs, sssp, bc, cc, pr;
  };
  const std::vector<System> systems = {
      {"BGL-class", run_serial_bfs, run_serial_sssp, run_serial_bc,
       run_serial_cc, run_serial_pr},
      {"CuSha-class",
       [](const Csr& g, VertexId s) {
         return run_gas_bfs(g, s, gas::Flavor::kFullSweep);
       },
       [](const Csr& g, VertexId s) {
         return run_gas_sssp(g, s, gas::Flavor::kFullSweep);
       },
       nullptr, nullptr,
       [](const Csr& g, VertexId s) {
         return run_gas_pr(g, s, gas::Flavor::kFullSweep);
       }},
      {"Hardwired", run_hw_bfs, run_hw_sssp, run_hw_bc, run_hw_cc, nullptr},
      {"Ligra", run_ligra_bfs, run_ligra_sssp, run_ligra_bc, run_ligra_cc,
       run_ligra_pr},
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
  };
  const std::vector<std::pair<std::string, int>> prims = {
      {"BFS", 0}, {"SSSP", 1}, {"BC", 2}, {"CC", 3}, {"PR", 4}};
  const std::vector<Fn> gunrock = {run_engine_bfs, run_engine_sssp,
                                   run_engine_bc, run_engine_cc,
                                   run_engine_pr};

  std::cout << "=== Figure 7: Gunrock speedup vs other systems "
               "(>1 = Gunrock faster; '(*)' marks Gunrock-slower cells) "
               "(shrink=" << shrink << ") ===\n";
  for (const auto& [pname, pid] : prims) {
    std::vector<std::string> header{"system \\ " + pname};
    for (const auto& spec : datasets()) header.push_back(spec.name);
    Table t(header);
    for (const auto& sys : systems) {
      const Fn& base = pid == 0   ? sys.bfs
                       : pid == 1 ? sys.sssp
                       : pid == 2 ? sys.bc
                       : pid == 3 ? sys.cc
                                  : sys.pr;
      if (!base) continue;
      std::vector<std::string> row{sys.name};
      for (const auto& spec : datasets()) {
        const Csr& g = graphs.at(spec.name);
        const double gr = gunrock[static_cast<std::size_t>(pid)](g, src)
                              .runtime_ms;
        const double other = base(g, src).runtime_ms;
        const double speedup = other / gr;
        row.push_back(Table::num(speedup, 2) +
                      (speedup >= 1.0 ? "" : " (*)"));
      }
      t.add_row(std::move(row));
    }
    std::cout << t << '\n';
  }
  std::cout << "expected shape (paper): mostly black dots (speedup >= 1); "
               "white dots concentrated in the Hardwired column (CC "
               "everywhere, scattered BFS/BC cells) and parts of Ligra.\n";
  return 0;
}
