// pglb — command-line driver over the library: generate graphs, inspect
// them, profile clusters into a persistent CCR pool, partition, and run the
// full proxy-guided flow, all from the shell.
//
//   pglb generate  --type=powerlaw --vertices=100000 --alpha=2.1 --out=g.txt
//   pglb stats     --graph=g.txt [--plot]
//   pglb alpha     --vertices=4847571 --edges=68993773
//   pglb machines
//   pglb profile   --machines=xeon_server_s,xeon_server_l --apps=pagerank
//                  --scale=0.004 --out=pool.tsv
//   pglb partition --graph=g.txt --machines=... --algorithm=hybrid
//                  --weights=1,3.5 --out=assignment.txt
//   pglb run       --graph=g.txt --app=pagerank --machines=...
//                  --estimator=ccr --pool=pool.tsv --algorithm=hybrid
//                  --scale=0.004
//   pglb delta     --graph=g.txt --app=pagerank --machines=...
//                  --mutations=ops.txt --batch=64 --reprofile=auto
//
// `delta` drives the incremental planning subsystem (docs/DYNAMIC.md)
// in-process: it creates a named base from --graph, then streams the ops in
// --mutations (one per line: `add SRC DST`, `remove SRC DST`, `addv ID`,
// `removev ID`; '#' comments) in batches of --batch (0 = one batch),
// printing the maintained plan after each batch.

#include <fstream>
#include <iostream>
#include <sstream>

#include "baselines/dynamic_migration.hpp"
#include "core/flow.hpp"
#include "dynamic/delta_planner.hpp"
#include "core/profiler.hpp"
#include "core/time_database.hpp"
#include "gen/alpha_solver.hpp"
#include "gen/chung_lu.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "graph/io.hpp"
#include "graph/relabel.hpp"
#include "machine/catalog.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/weights.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"

using namespace pglb;

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Cluster cluster_from_flag(const Cli& cli) {
  const auto names = split_csv(cli.get_string("machines", ""));
  if (names.empty()) throw std::invalid_argument("--machines=a,b,... is required");
  return cluster_from_names(names);
}

bool has_extension(const std::string& path, const char* ext) {
  const auto dot = path.rfind('.');
  return dot != std::string::npos && path.substr(dot) == ext;
}

/// Format dispatch by extension: .mtx = MatrixMarket, .bin = pglb binary,
/// anything else = SNAP text.
EdgeList read_graph_any(const std::string& path) {
  if (has_extension(path, ".mtx")) return read_matrix_market(path);
  if (has_extension(path, ".bin")) return read_edge_list_binary(path);
  return read_edge_list_text(path);
}

void write_graph_any(const EdgeList& graph, const std::string& path) {
  if (has_extension(path, ".mtx")) {
    write_matrix_market(graph, path);
  } else if (has_extension(path, ".bin")) {
    write_edge_list_binary(graph, path);
  } else {
    write_edge_list_text(graph, path);
  }
}

int cmd_generate(const Cli& cli) {
  const std::string type = cli.get_string("type", "powerlaw");
  const auto vertices = static_cast<VertexId>(cli.get_int("vertices", 100'000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out = cli.get_string("out", "");
  if (out.empty()) throw std::invalid_argument("--out=FILE is required");

  EdgeList graph;
  if (type == "powerlaw") {
    PowerLawConfig config;
    config.num_vertices = vertices;
    config.alpha = cli.get_double("alpha", 2.1);
    config.seed = seed;
    graph = generate_powerlaw(config);
  } else if (type == "chung_lu") {
    ChungLuConfig config;
    config.num_vertices = vertices;
    config.target_edges = static_cast<EdgeId>(cli.get_int("edges", vertices * 10));
    config.alpha = cli.get_double("alpha", 2.1);
    config.seed = seed;
    graph = generate_chung_lu(config);
  } else if (type == "erdos_renyi") {
    ErdosRenyiConfig config;
    config.num_vertices = vertices;
    config.num_edges = static_cast<EdgeId>(cli.get_int("edges", vertices * 10));
    config.seed = seed;
    graph = generate_erdos_renyi(config);
  } else if (type == "rmat") {
    RmatConfig config;
    config.scale = static_cast<int>(cli.get_int("rmat-scale", 17));
    config.num_edges = static_cast<EdgeId>(cli.get_int("edges", 1'000'000));
    config.seed = seed;
    graph = generate_rmat(config);
  } else {
    throw std::invalid_argument("unknown --type '" + type +
                                "' (powerlaw, chung_lu, erdos_renyi, rmat)");
  }
  write_graph_any(graph, out);
  std::cout << "wrote " << graph.num_vertices() << " vertices, " << graph.num_edges()
            << " edges to " << out << "\n";
  return 0;
}

int cmd_stats(const Cli& cli) {
  const std::string path = cli.get_string("graph", "");
  if (path.empty()) throw std::invalid_argument("--graph=FILE is required");
  const EdgeList graph = read_graph_any(path);
  const GraphStats stats = compute_stats(graph);
  const auto fit = solve_alpha(stats.num_vertices, stats.num_edges);

  Table table({"metric", "value"});
  table.row().cell("vertices").cell(static_cast<std::uint64_t>(stats.num_vertices));
  table.row().cell("edges").cell(static_cast<std::uint64_t>(stats.num_edges));
  table.row().cell("mean out-degree").cell(stats.mean_out_degree, 3);
  table.row().cell("max out-degree").cell(static_cast<std::uint64_t>(stats.max_out_degree));
  table.row().cell("degree skew").cell(stats.degree_skew, 1);
  table.row().cell("sink fraction").cell(format_percent(stats.sink_fraction));
  table.row().cell("footprint").cell(
      format_double(static_cast<double>(stats.footprint_bytes) / 1e6, 1) + " MB");
  table.row().cell("fitted alpha (Eq. 7)").cell(fit.alpha, 3);
  table.row().cell("empirical tail alpha").cell(stats.empirical_alpha, 3);
  table.print(std::cout);

  if (cli.get_bool("plot", false)) {
    std::cout << "\n" << ascii_loglog(log_bin(out_degree_histogram(graph)));
  }
  return 0;
}

int cmd_alpha(const Cli& cli) {
  const auto vertices = static_cast<VertexId>(cli.get_int("vertices", 0));
  const auto edges = static_cast<EdgeId>(cli.get_int("edges", 0));
  if (vertices == 0) throw std::invalid_argument("--vertices and --edges are required");
  const auto result = solve_alpha(vertices, edges);
  std::cout << "alpha = " << format_double(result.alpha, 6) << " ("
            << result.iterations << " Newton iterations, residual "
            << result.residual << ")\n";
  return result.converged ? 0 : 1;
}

int cmd_machines(const Cli&) {
  Table table({"name", "hw threads", "compute threads", "$/hour", "category"});
  for (const MachineSpec& m : table1_machines()) {
    table.row()
        .cell(m.name)
        .cell(static_cast<std::int64_t>(m.hw_threads))
        .cell(static_cast<std::int64_t>(m.compute_threads))
        .cell(m.cost_per_hour, 3)
        .cell(to_string(m.category));
  }
  table.print(std::cout);
  return 0;
}

int cmd_profile(const Cli& cli) {
  const Cluster cluster = cluster_from_flag(cli);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const std::string out = cli.get_string("out", "");
  if (out.empty()) throw std::invalid_argument("--out=pool.tsv is required");

  std::vector<AppKind> apps;
  for (const std::string& name :
       split_csv(cli.get_string("apps", "pagerank,coloring,connected_components,"
                                        "triangle_count"))) {
    apps.push_back(app_from_name(name));
  }

  TimeDatabase pool;
  const std::size_t runs = profile_cluster(pool, cluster, ProxySuite(scale), apps);
  save_time_database(pool, out);
  std::cout << "profiled " << runs << " (app, proxy, machine-type) combinations; pool "
            << "saved to " << out << "\n";
  for (const AppKind app : apps) {
    const auto ccr = pool.ccr_for(cluster, app, 2.1);
    std::cout << "  " << to_string(app) << " CCR:";
    for (const double c : ccr) std::cout << " " << format_double(c, 2);
    std::cout << "\n";
  }
  return 0;
}

std::vector<double> weights_from_flag(const Cli& cli, const Cluster& cluster, AppKind app,
                                      const EdgeList& graph, const GraphStats& stats) {
  const std::string spec = cli.get_string("weights", "uniform");
  if (spec == "uniform") return uniform_weights(cluster.size());
  if (spec == "threads") return thread_count_weights(cluster);
  if (spec.find(',') != std::string::npos) {
    std::vector<double> weights;
    for (const std::string& w : split_csv(spec)) weights.push_back(std::stod(w));
    if (weights.size() != cluster.size()) {
      throw std::invalid_argument("--weights list must have one entry per machine");
    }
    return shares_from_capabilities(weights);
  }
  // Otherwise: path to a profiled pool.
  const TimeDatabase db = load_time_database(spec);
  return ProxyCcrEstimator(db).weights(cluster, app, graph, stats);
}

int cmd_partition(const Cli& cli) {
  const std::string path = cli.get_string("graph", "");
  if (path.empty()) throw std::invalid_argument("--graph=FILE is required");
  const Cluster cluster = cluster_from_flag(cli);
  const AppKind app = app_from_name(cli.get_string("app", "pagerank"));
  const auto kind = partitioner_from_string(cli.get_string("algorithm", "hybrid"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  const EdgeList raw = read_graph_any(path);
  const EdgeList graph = prepare_graph_for(app, raw);
  const GraphStats stats = compute_stats(graph);
  const auto weights = weights_from_flag(cli, cluster, app, graph, stats);

  const auto partitioner = make_partitioner(kind);
  const auto assignment = partitioner->partition(graph, weights, seed);
  const auto metrics = compute_partition_metrics(graph, assignment, weights);

  std::cout << "partitioned " << graph.num_edges() << " edges with " << to_string(kind)
            << ": replication " << format_double(metrics.replication_factor, 3)
            << ", imbalance " << format_double(metrics.weighted_imbalance, 3) << "\n";
  for (MachineId m = 0; m < cluster.size(); ++m) {
    std::cout << "  " << cluster.machine(m).name << ": "
              << metrics.edges_per_machine[m] << " edges (target "
              << format_percent(weights[m]) << ")\n";
  }

  const std::string out = cli.get_string("out", "");
  if (!out.empty()) {
    std::ofstream file(out);
    if (!file) throw std::runtime_error("cannot open " + out);
    file << "# pglb edge assignment: edge_index machine\n";
    for (EdgeId i = 0; i < assignment.edge_to_machine.size(); ++i) {
      file << i << '\t' << assignment.edge_to_machine[i] << '\n';
    }
    std::cout << "assignment written to " << out << "\n";
  }
  return 0;
}

int cmd_run(const Cli& cli) {
  const std::string path = cli.get_string("graph", "");
  if (path.empty()) throw std::invalid_argument("--graph=FILE is required");
  const Cluster cluster = cluster_from_flag(cli);
  const AppKind app = app_from_name(cli.get_string("app", "pagerank"));
  const double scale = cli.get_double("scale", 1.0);

  FlowOptions options;
  options.partitioner = partitioner_from_string(cli.get_string("algorithm", "hybrid"));
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.scale = scale;

  const EdgeList graph = read_graph_any(path);

  const std::string estimator_name = cli.get_string("estimator", "uniform");
  std::unique_ptr<CapabilityEstimator> estimator;
  TimeDatabase db;
  if (estimator_name == "uniform") {
    estimator = std::make_unique<UniformEstimator>();
  } else if (estimator_name == "threads") {
    estimator = std::make_unique<ThreadCountEstimator>();
  } else if (estimator_name == "oracle") {
    estimator = std::make_unique<OracleEstimator>(scale);
  } else if (estimator_name == "ccr") {
    const std::string pool_path = cli.get_string("pool", "");
    if (pool_path.empty()) {
      throw std::invalid_argument("--estimator=ccr requires --pool=pool.tsv "
                                  "(create one with `pglb profile`)");
    }
    db = load_time_database(pool_path);
    estimator = std::make_unique<ProxyCcrEstimator>(db);
  } else {
    throw std::invalid_argument("unknown --estimator '" + estimator_name +
                                "' (uniform, threads, ccr, oracle)");
  }

  const FlowResult result = run_flow(graph, app, cluster, *estimator, options);
  append_trace_spans(result.app.report);
  std::cout << result.app.report.summary() << "\n";
  std::cout << "result digest: " << result.app.digest << "\n";
  std::cout << "replication factor: " << format_double(result.replication_factor, 3)
            << ", weighted imbalance: "
            << format_double(result.partition.weighted_imbalance, 3) << "\n";
  return 0;
}

/// One textual mutation op per line: `add SRC DST`, `remove SRC DST`,
/// `addv ID`, `removev ID`; blank lines and '#' comments skipped.
std::vector<dynamic::Mutation> read_mutation_ops(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<dynamic::Mutation> ops;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ss(line);
    std::string op;
    if (!(ss >> op) || op.front() == '#') continue;
    const auto bad = [&](const char* what) -> std::runtime_error {
      return std::runtime_error(path + ":" + std::to_string(line_no) + ": " + what);
    };
    std::uint64_t a = 0, b = 0;
    if (op == "add" || op == "remove") {
      if (!(ss >> a >> b)) throw bad("expected SRC DST");
      if (a >= kInvalidVertex || b >= kInvalidVertex) throw bad("vertex id overflow");
      ops.push_back(op == "add"
                        ? dynamic::Mutation::add_edge(static_cast<VertexId>(a),
                                                      static_cast<VertexId>(b))
                        : dynamic::Mutation::remove_edge(static_cast<VertexId>(a),
                                                         static_cast<VertexId>(b)));
    } else if (op == "addv" || op == "removev") {
      if (!(ss >> a)) throw bad("expected ID");
      if (a >= kInvalidVertex) throw bad("vertex id overflow");
      ops.push_back(op == "addv"
                        ? dynamic::Mutation::add_vertex(static_cast<VertexId>(a))
                        : dynamic::Mutation::remove_vertex(static_cast<VertexId>(a)));
    } else {
      throw bad("unknown op (add, remove, addv, removev)");
    }
  }
  return ops;
}

void print_delta_response(const std::string& label, const std::string& line) {
  const PlanResponse response = parse_plan_response(line);
  if (!response.ok) {
    std::cout << label << ": " << to_string(response.status) << " — "
              << response.error << "\n";
    return;
  }
  std::cout << label << ": " << response.partitioner << ", makespan "
            << format_double(response.makespan_seconds, 4) << "s";
  if (const auto delta = parse_delta_block(line)) {
    std::cout << " | v" << delta->version << ", " << delta->live_vertices
              << " vertices, " << delta->live_edges << " edges, churn "
              << format_percent(delta->churn) << ", hist "
              << format_double(delta->hist_distance, 3)
              << (delta->reprofiled ? ", REPROFILED" : "") << ", moved "
              << delta->moved_edges << ", replication "
              << format_double(delta->replication_factor, 3);
  }
  std::cout << "\n";
}

int cmd_delta(const Cli& cli) {
  const std::string path = cli.get_string("graph", "");
  if (path.empty()) throw std::invalid_argument("--graph=FILE is required");
  const auto machines = split_csv(cli.get_string("machines", ""));
  if (machines.empty()) throw std::invalid_argument("--machines=a,b,... is required");

  PlannerOptions planner_options;
  planner_options.proxy_scale = cli.get_double("scale", 1.0 / 256.0);
  ServiceMetrics metrics;
  Planner planner(planner_options, &metrics);
  dynamic::DeltaPlanner delta(planner, {}, &metrics);

  PlanRequest request;
  request.type = RequestType::kDelta;
  request.base = cli.get_string("base", "cli");
  request.app = app_from_name(cli.get_string("app", "pagerank"));
  request.machines = machines;
  request.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("algorithm")) {
    request.partitioner = partitioner_from_string(cli.get_string("algorithm", ""));
  }
  const std::string reprofile = cli.get_string("reprofile", "auto");
  request.reprofile = reprofile_mode_from_string(reprofile);
  if (cli.has("drift-churn")) request.drift_churn = cli.get_double("drift-churn", 0.05);
  if (cli.has("drift-hist")) request.drift_hist = cli.get_double("drift-hist", 0.10);

  // Creation batch: the whole input graph as one mutation stream.
  const EdgeList graph = read_graph_any(path);
  request.id = "create";
  request.mutations.reserve(graph.num_vertices() + graph.num_edges());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    request.mutations.push_back(dynamic::Mutation::add_vertex(v));
  }
  for (const Edge& e : graph.edges()) {
    request.mutations.push_back(dynamic::Mutation::add_edge(e.src, e.dst));
  }
  const std::string created = delta.handle(request);
  print_delta_response("create " + request.base, created);
  if (!parse_plan_response(created).ok) return 1;

  const std::string mutations_path = cli.get_string("mutations", "");
  if (mutations_path.empty()) return 0;
  const std::vector<dynamic::Mutation> ops = read_mutation_ops(mutations_path);
  const auto batch_size = static_cast<std::size_t>(cli.get_int("batch", 0));

  // Updates name the base alone: no app/machines, no creation-only fields.
  PlanRequest update;
  update.type = RequestType::kDelta;
  update.base = request.base;
  update.reprofile = request.reprofile;
  update.drift_churn = request.drift_churn;
  update.drift_hist = request.drift_hist;
  std::size_t offset = 0, batch_no = 0;
  while (offset < ops.size()) {
    const std::size_t take =
        batch_size == 0 ? ops.size() - offset
                        : std::min(batch_size, ops.size() - offset);
    update.id = "batch" + std::to_string(batch_no);
    update.mutations.assign(ops.begin() + static_cast<std::ptrdiff_t>(offset),
                            ops.begin() + static_cast<std::ptrdiff_t>(offset + take));
    const std::string line = delta.handle(update);
    print_delta_response(update.id, line);
    if (!parse_plan_response(line).ok) return 1;
    offset += take;
    ++batch_no;
  }
  return 0;
}

int cmd_relabel(const Cli& cli) {
  const std::string in_path = cli.get_string("graph", "");
  const std::string out_path = cli.get_string("out", "");
  if (in_path.empty() || out_path.empty()) {
    throw std::invalid_argument("--graph=IN and --out=OUT are required");
  }
  const std::string mode = cli.get_string("mode", "compact");
  const EdgeList graph = read_graph_any(in_path);
  RelabelResult result;
  if (mode == "compact") {
    result = compact_vertex_ids(graph);
  } else if (mode == "degree") {
    result = relabel_by_degree(graph);
  } else {
    throw std::invalid_argument("unknown --mode '" + mode + "' (compact, degree)");
  }
  write_graph_any(result.graph, out_path);
  std::cout << "relabelled (" << mode << "): " << graph.num_vertices() << " -> "
            << result.graph.num_vertices() << " vertices, " << result.graph.num_edges()
            << " edges -> " << out_path << "\n";
  return 0;
}

int usage() {
  std::cerr << "usage: pglb <generate|stats|alpha|machines|profile|partition|run|"
               "relabel|delta> "
               "[flags]\n(see the header of tools/pglb_cli.cpp for examples)\n";
  return 2;
}

}  // namespace

int dispatch(const std::string& command, const Cli& cli) {
  if (command == "generate") return cmd_generate(cli);
  if (command == "stats") return cmd_stats(cli);
  if (command == "alpha") return cmd_alpha(cli);
  if (command == "machines") return cmd_machines(cli);
  if (command == "profile") return cmd_profile(cli);
  if (command == "partition") return cmd_partition(cli);
  if (command == "run") return cmd_run(cli);
  if (command == "relabel") return cmd_relabel(cli);
  if (command == "delta") return cmd_delta(cli);
  return usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Cli cli(argc - 1, argv + 1);
  try {
    // --trace-out=FILE on any command: record spans for the whole invocation
    // and export them as a Chrome trace (chrome://tracing, Perfetto).
    const std::string trace_out = cli.get_string("trace-out", "");
    if (!trace_out.empty()) set_tracing_enabled(true);
    // --dump-registry on any command: print the process-wide metrics registry
    // snapshot (counters, gauges, stage latencies) to stderr after the run.
    const bool dump_registry = cli.get_bool("dump-registry", false);
    const int status = dispatch(command, cli);
    if (!trace_out.empty()) {
      write_chrome_trace(trace_out);
      std::cerr << "trace written to " << trace_out << "\n";
    }
    if (dump_registry) {
      std::cerr << global_registry().to_json() << "\n";
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "pglb " << command << ": " << e.what() << "\n";
    return 1;
  }
}
