#include "core/time_database.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/ccr.hpp"
#include "util/parse.hpp"

namespace pglb {

std::string canonical_alpha(double alpha) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", alpha);
  return buffer;
}

void TimeDatabase::record(const Key& key, double seconds) {
  if (!std::isfinite(key.proxy_alpha)) {
    throw std::invalid_argument("TimeDatabase::record: alpha must be finite");
  }
  if (!(seconds > 0.0) || !std::isfinite(seconds)) {
    throw std::invalid_argument("TimeDatabase::record: time must be positive");
  }
  times_[key] = seconds;
}

std::optional<double> TimeDatabase::lookup(const Key& key) const {
  const auto it = times_.find(key);
  if (it == times_.end()) return std::nullopt;
  return it->second;
}

std::vector<double> TimeDatabase::alphas_for(AppKind app) const {
  std::vector<double> alphas;
  for (const auto& [key, _] : times_) {
    if (key.app == app &&
        (alphas.empty() || alphas.back() != key.proxy_alpha)) {
      alphas.push_back(key.proxy_alpha);
    }
  }
  std::sort(alphas.begin(), alphas.end());
  alphas.erase(std::unique(alphas.begin(), alphas.end()), alphas.end());
  return alphas;
}

std::optional<double> TimeDatabase::nearest_alpha(AppKind app, double graph_alpha) const {
  const auto alphas = alphas_for(app);
  if (alphas.empty()) return std::nullopt;
  double best_alpha = alphas.front();
  for (const double a : alphas) {
    if (std::abs(a - graph_alpha) < std::abs(best_alpha - graph_alpha)) best_alpha = a;
  }
  return best_alpha;
}

std::vector<double> TimeDatabase::ccr_for(const Cluster& cluster, AppKind app,
                                          double graph_alpha) const {
  const auto nearest = nearest_alpha(app, graph_alpha);
  if (!nearest) {
    throw std::out_of_range("TimeDatabase::ccr_for: app '" +
                            std::string(to_string(app)) + "' never profiled");
  }
  const double best_alpha = *nearest;

  std::vector<double> per_machine(cluster.size());
  for (MachineId m = 0; m < cluster.size(); ++m) {
    const auto t = lookup({app, best_alpha, cluster.machine(m).name});
    if (!t) {
      throw std::out_of_range("TimeDatabase::ccr_for: machine '" +
                              cluster.machine(m).name + "' not profiled for app '" +
                              to_string(app) + "'");
    }
    per_machine[m] = *t;
  }
  return ccr_from_times(per_machine);
}

void save_time_database(const TimeDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_time_database: cannot open " + path);
  // v2: numbers are written in shortest round-trip form (format_double); v1
  // wrote precision(17) iostream output.  Both encode identical values, but
  // the bytes differ, so the header version flags which build wrote the file.
  out << "# pglb-ccr-pool v2\n";
  // format_double keeps the file byte-stable and '.'-pointed under any
  // process locale (ofstream << double would honour the global locale).
  for (const auto& [key, seconds] : db.entries()) {
    out << to_string(key.app) << '\t' << format_double(key.proxy_alpha) << '\t'
        << key.machine << '\t' << format_double(seconds) << '\n';
  }
  if (!out) throw std::runtime_error("save_time_database: write failed: " + path);
}

TimeDatabase load_time_database(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_time_database: cannot open " + path);
  std::string header;
  std::getline(in, header);
  // v1 files (written by older builds) parse identically — only the byte
  // encoding of the numbers changed in v2 — so keep accepting them.
  if (header != "# pglb-ccr-pool v2" && header != "# pglb-ccr-pool v1") {
    throw std::runtime_error("load_time_database: bad header in " + path);
  }
  TimeDatabase db;
  std::string line;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    // Whitespace-split into (app, alpha, machine, seconds); numbers parse via
    // from_chars so a comma-decimal process locale cannot corrupt the pool.
    std::vector<std::string_view> fields;
    const std::string_view view = line;
    for (std::size_t i = 0; i < view.size();) {
      const std::size_t start = view.find_first_not_of(" \t", i);
      if (start == std::string_view::npos) break;
      const std::size_t stop = view.find_first_of(" \t", start);
      fields.push_back(view.substr(start, stop - start));
      i = stop == std::string_view::npos ? view.size() : stop;
    }
    // from_chars also accepts "nan" and "inf": a row must carry a finite
    // alpha and a finite, positive time, or it is a parse error here rather
    // than an unnumbered throw from record().
    std::optional<double> alpha, seconds;
    if (fields.size() == 4) {
      alpha = parse_double(fields[1]);
      seconds = parse_double(fields[3]);
    }
    if (!alpha || !seconds || !std::isfinite(*alpha) || !std::isfinite(*seconds) ||
        !(*seconds > 0.0)) {
      throw std::runtime_error("load_time_database: parse error at line " +
                               std::to_string(line_no) + " of " + path);
    }
    const std::string app_name(fields[0]);
    const std::string machine(fields[2]);
    const auto app = try_app_from_name(app_name);
    if (!app) {
      throw std::runtime_error("load_time_database: unknown app name '" + app_name +
                               "' at line " + std::to_string(line_no) + " of " + path);
    }
    db.record({*app, *alpha, machine}, *seconds);
  }
  return db;
}

}  // namespace pglb
