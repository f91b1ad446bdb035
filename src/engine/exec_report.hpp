#pragma once
// Execution report of one distributed application run: the virtual-time and
// energy numbers that every evaluation figure (9, 10) is built from.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "machine/energy_model.hpp"

namespace pglb {

struct MachineActivity {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double idle_seconds = 0.0;
  double ops = 0.0;
  double joules = 0.0;
};

/// One superstep of the schedule, for straggler analysis.
struct SuperstepTrace {
  double window_seconds = 0.0;    ///< barrier-to-barrier duration
  double exchange_seconds = 0.0;  ///< shared mirror-exchange portion
  MachineId straggler = 0;        ///< machine whose compute defined the window
  double total_ops = 0.0;
};

/// The work an app recorded, superstep by superstep: per-machine operation
/// counts and mirror-synchronisation bytes, `machines` entries per superstep.
/// It depends only on the app, the graph and its partition, never on the
/// machines, so pricing it on another cluster (engine.hpp's price) reproduces
/// a run there.
struct WorkTrace {
  MachineId machines = 0;
  std::vector<double> ops;
  std::vector<double> comm_bytes;
};

struct ExecReport {
  std::string app_name;
  double makespan_seconds = 0.0;   ///< virtual wall-clock of the whole run
  double total_joules = 0.0;
  int supersteps = 0;
  bool converged = false;
  double total_ops = 0.0;
  std::vector<MachineActivity> per_machine;
  /// Chronological per-superstep schedule (synchronous apps; empty for
  /// asynchronous execution, which has no barriers to trace).
  std::vector<SuperstepTrace> trace;
  /// What the app recorded, for re-pricing on other machines.
  WorkTrace work;

  /// Fraction of synchronous supersteps stalled by the given machine.
  double straggler_fraction(MachineId machine) const noexcept;

  /// Fraction of aggregate machine-time spent idling at barriers — the
  /// imbalance waste the paper's method removes.
  double idle_fraction() const noexcept;

  std::string summary() const;
};

/// Bridge a run's synchronous superstep schedule into the span tracer as
/// virtual-time spans on track `track` of the "virtual cluster" process
/// (pid 2 of the Chrome trace): one "superstep" span per barrier window
/// (arg = straggler machine) with a nested "exchange" span for the
/// mirror-sync tail.  No-op when tracing is disabled or the trace is empty
/// (asynchronous apps record no barriers).
void append_trace_spans(const ExecReport& report, std::int32_t track = 0);

}  // namespace pglb
