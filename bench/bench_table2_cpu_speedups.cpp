// Regenerates Table 2: geometric-mean speedup of Gunrock over the CPU-
// library-model baselines across the six datasets:
//   BGL-class       -> serial reference (single-threaded CPU, wall-clock)
//   Galois-class    -> Ligra-model shared-memory engine (wall-clock; on a
//                      1-core host this approximates a 1-thread Galois)
//   PowerGraph-class-> GAS-model engine (simulated device time; the GAS
//                      programming model is the comparison target)
//   Medusa-class    -> message-passing engine (simulated device time);
//                      like the paper, Medusa columns use smaller inputs
//                      ("due to Medusa's memory limitations").
//
// The unit caveat (wall vs simulated) is discussed in docs/benchmarks.md; the
// paper's qualitative claim under test is "order of magnitude over BGL and
// PowerGraph, smaller gains over Galois".
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  using namespace grx::bench;
  const Cli cli(argc, argv);
  const int shrink = shrink_from(cli, /*def=*/1);
  const int medusa_shrink = shrink + 2;  // paper: smaller datasets for Medusa
  const auto graphs = load_all(shrink);
  const auto small_graphs = load_all(medusa_shrink);
  const VertexId src = 0;

  using Fn = std::function<Cell(const Csr&, VertexId)>;
  struct Row {
    std::string prim;
    Fn gunrock;
    Fn bgl;     // serial
    Fn galois;  // galois-model worklist engine
    Fn powergraph;  // gas-model
    Fn medusa;
  };
  const std::vector<Row> rows = {
      {"BFS", run_engine_bfs, run_serial_bfs, run_galois_bfs,
       [](const Csr& g, VertexId s) {
         return run_gas_bfs(g, s, gas::Flavor::kFrontier);
       },
       run_medusa_bfs},
      {"SSSP", run_engine_sssp, run_serial_sssp, run_galois_sssp,
       [](const Csr& g, VertexId s) {
         return run_gas_sssp(g, s, gas::Flavor::kFrontier);
       },
       run_medusa_sssp},
      {"BC", run_engine_bc, run_serial_bc, run_galois_bc, nullptr, nullptr},
      {"PageRank", run_engine_pr, run_serial_pr, run_galois_pr,
       [](const Csr& g, VertexId s) {
         return run_gas_pr(g, s, gas::Flavor::kFrontier);
       },
       run_medusa_pr},
      {"CC", run_engine_cc, run_serial_cc, run_galois_cc,
       [](const Csr& g, VertexId s) {
         return run_gas_cc(g, s, gas::Flavor::kFrontier);
       },
       nullptr},
  };

  std::cout << "=== Table 2: geometric-mean runtime speedup of Gunrock over "
               "CPU-model baselines (shrink=" << shrink
            << ", Medusa at shrink=" << medusa_shrink << ") ===\n";
  Table t({"algorithm", "Galois-class", "BGL-class", "PowerGraph-class",
           "Medusa-class"});
  for (const auto& row : rows) {
    std::vector<double> s_galois, s_bgl, s_pg, s_medusa;
    for (const auto& spec : datasets()) {
      const Csr& g = graphs.at(spec.name);
      const Cell gr = row.gunrock(g, src);
      if (row.bgl) s_bgl.push_back(row.bgl(g, src).runtime_ms / gr.runtime_ms);
      if (row.galois)
        s_galois.push_back(row.galois(g, src).runtime_ms / gr.runtime_ms);
      if (row.powergraph)
        s_pg.push_back(row.powergraph(g, src).runtime_ms / gr.runtime_ms);
      if (row.medusa) {
        const Csr& gs = small_graphs.at(spec.name);
        const Cell gr_small = row.gunrock(gs, src);
        s_medusa.push_back(row.medusa(gs, src).runtime_ms /
                           gr_small.runtime_ms);
      }
    }
    auto fmt = [](const std::vector<double>& v) {
      return v.empty() ? std::string("--")
                       : Table::num(geometric_mean(v), 3);
    };
    t.add_row({row.prim, fmt(s_galois), fmt(s_bgl), fmt(s_pg),
               fmt(s_medusa)});
  }
  std::cout << t << '\n';
  std::cout << "paper reference: Galois 0.7-2.8x | BGL 52-338x | "
               "PowerGraph 6.2-144x | Medusa 6.9-11.9x\n";
  std::cout << "expected shape: large over BGL-class and PowerGraph-class, "
               "moderate over Medusa-class, smallest over Galois-class.\n";
  return 0;
}
