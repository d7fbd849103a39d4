// Solver shootout: every IK method in the library on the same workload,
// from a classic 6-DOF industrial arm to the paper's 100-DOF ladder.
// Prints iterations, computation load, convergence rate and measured
// wall time per solver — a compact view of the trade-off space the
// paper's Section 6.2 explores.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "dadu/dadu.hpp"
#include "dadu/report/table.hpp"

namespace {

void runOn(const dadu::kin::Chain& chain, int targets) {
  using dadu::report::Table;
  std::printf("\n--- %s (%zu DOF), %d targets, accuracy 1e-2 m ---\n",
              chain.name().c_str(), chain.dof(), targets);

  dadu::ik::SolveOptions options;
  options.max_iterations = 10'000;

  const auto tasks = dadu::workload::generateTasks(chain, targets);

  Table table({"solver", "conv%", "iters", "load(spec*iter)", "err(mm)",
               "ms/solve"});
  for (const std::string& name : dadu::ik::solverNames()) {
    auto solver = dadu::ik::makeSolver(name, chain, options);

    std::vector<dadu::ik::SolveResult> results;
    results.reserve(tasks.size());
    dadu::platform::WallTimer timer;
    for (const auto& task : tasks)
      results.push_back(solver->solve(task.target, task.seed));
    const double ms = timer.elapsedMs() / targets;

    const auto stats = dadu::ik::summarize(results);
    table.addRow({name, Table::num(stats.convergenceRate() * 100.0, 1),
                  Table::num(stats.mean_iterations, 1),
                  Table::num(stats.mean_load, 0),
                  Table::num(stats.mean_error * 1e3, 2), Table::num(ms, 3)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  runOn(dadu::kin::makePuma560(), 20);
  runOn(dadu::kin::makeSerpentine(12), 20);
  runOn(dadu::kin::makeSerpentine(50), 10);
  return 0;
}
