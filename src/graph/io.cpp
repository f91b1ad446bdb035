#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace pglb {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x70676c625f656431ull;  // "pglb_ed1"

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

/// Bytes between `in`'s read position and its end; 0 when it cannot seek.
std::uint64_t bytes_remaining(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here < 0) return 0;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.clear();
  in.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

int decimal_digits(std::uint64_t v) {
  int digits = 1;
  while (v >= 10) {
    v /= 10;
    ++digits;
  }
  return digits;
}

}  // namespace

void write_edge_list_text(const EdgeList& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) io_fail("write_edge_list_text: cannot open", path);
  out << "# pglb edge list: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " edges\n";
  std::array<char, 64> buf;
  // Reserve the final byte for the separator written after each to_chars.
  char* const limit = buf.data() + buf.size() - 1;
  for (const Edge& e : graph.edges()) {
    auto r1 = std::to_chars(buf.data(), limit, e.src);
    *r1.ptr = '\t';
    auto r2 = std::to_chars(r1.ptr + 1, limit, e.dst);
    *r2.ptr = '\n';
    out.write(buf.data(), r2.ptr + 1 - buf.data());
  }
  if (!out) io_fail("write_edge_list_text: write failed", path);
}

EdgeList read_edge_list_text(const std::string& path) {
  {
    // Format sniff: a MatrixMarket file announces itself with a "%%" banner
    // on the first line, which SNAP text can never produce ('%' is not a
    // digit or '#').  Delegate so pipelines pointed at .mtx inputs keep
    // working without a format flag; a "%%" banner that is not a valid
    // MatrixMarket header is rejected by read_matrix_market as usual.
    std::ifstream sniff(path);
    if (!sniff) io_fail("read_edge_list_text: cannot open", path);
    std::string first;
    if (std::getline(sniff, first) && first.rfind("%%", 0) == 0) {
      return read_matrix_market(path);
    }
  }
  std::ifstream in(path);
  if (!in) io_fail("read_edge_list_text: cannot open", path);
  std::vector<Edge> edges;
  VertexId max_vertex = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view sv(line);
    if (sv.empty() || sv.front() == '#') continue;
    std::uint64_t src = 0, dst = 0;
    const char* begin = sv.data();
    const char* end = sv.data() + sv.size();
    auto r1 = std::from_chars(begin, end, src);
    if (r1.ec != std::errc{}) io_fail("read_edge_list_text: bad src at line " + std::to_string(line_no), path);
    const char* p = r1.ptr;
    while (p < end && (*p == '\t' || *p == ' ')) ++p;
    auto r2 = std::from_chars(p, end, dst);
    if (r2.ec != std::errc{}) io_fail("read_edge_list_text: bad dst at line " + std::to_string(line_no), path);
    if (src > kInvalidVertex - 1 || dst > kInvalidVertex - 1) {
      io_fail("read_edge_list_text: vertex id overflow at line " + std::to_string(line_no), path);
    }
    edges.push_back(Edge{static_cast<VertexId>(src), static_cast<VertexId>(dst)});
    max_vertex = std::max({max_vertex, static_cast<VertexId>(src), static_cast<VertexId>(dst)});
  }
  const VertexId n = edges.empty() ? 0 : max_vertex + 1;
  return EdgeList(n, std::move(edges));
}

void write_edge_list_binary(const EdgeList& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail("write_edge_list_binary: cannot open", path);
  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t m = graph.num_edges();
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&m), sizeof m);
  const auto edges = graph.edges();
  out.write(reinterpret_cast<const char*>(edges.data()),
            static_cast<std::streamsize>(edges.size_bytes()));
  if (!out) io_fail("write_edge_list_binary: write failed", path);
}

EdgeList read_edge_list_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail("read_edge_list_binary: cannot open", path);
  std::uint64_t magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  in.read(reinterpret_cast<char*>(&m), sizeof m);
  if (!in || magic != kBinaryMagic) io_fail("read_edge_list_binary: bad header", path);
  std::vector<Edge> edges(m);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(m * sizeof(Edge)));
  if (!in) io_fail("read_edge_list_binary: truncated edge data", path);
  return EdgeList(static_cast<VertexId>(n), std::move(edges));
}

void write_matrix_market(const EdgeList& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) io_fail("write_matrix_market: cannot open", path);
  out << "%%MatrixMarket matrix coordinate pattern general\n";
  out << "% written by pglb\n";
  out << graph.num_vertices() << ' ' << graph.num_vertices() << ' '
      << graph.num_edges() << '\n';
  for (const Edge& e : graph.edges()) {
    out << (e.src + 1) << ' ' << (e.dst + 1) << '\n';  // 1-based per the spec
  }
  if (!out) io_fail("write_matrix_market: write failed", path);
}

EdgeList read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) io_fail("read_matrix_market: cannot open", path);

  std::string header;
  if (!std::getline(in, header) || header.rfind("%%MatrixMarket", 0) != 0) {
    io_fail("read_matrix_market: missing %%MatrixMarket banner", path);
  }
  if (header.find("coordinate") == std::string::npos) {
    io_fail("read_matrix_market: only coordinate format supported", path);
  }
  const bool symmetric = header.find("symmetric") != std::string::npos;

  std::string line;
  // Skip comment lines, then read the size line.
  std::uint64_t rows = 0, cols = 0, entries = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '%') continue;
    std::istringstream ss(line);
    if (!(ss >> rows >> cols >> entries)) {
      io_fail("read_matrix_market: malformed size line", path);
    }
    break;
  }
  if (rows == 0 || rows != cols) {
    io_fail("read_matrix_market: adjacency matrices must be square and non-empty", path);
  }
  if (rows > kInvalidVertex - 1) io_fail("read_matrix_market: vertex id overflow", path);

  EdgeList graph(static_cast<VertexId>(rows));
  // Reserve what the header claims, but no more than the rest of the file can
  // hold: an entry line takes at least 4 bytes ("1 1\n"), so a lying size
  // line fails below as a truncated list instead of exhausting memory.
  const std::uint64_t room = (bytes_remaining(in) + 1) / 4;
  const std::uint64_t reserve = std::min(entries, room);
  graph.reserve(symmetric ? reserve * 2 : reserve);
  std::uint64_t seen = 0;
  while (seen < entries && std::getline(in, line)) {
    if (line.empty() || line.front() == '%') continue;
    std::istringstream ss(line);
    std::uint64_t r = 0, c = 0;
    if (!(ss >> r >> c)) io_fail("read_matrix_market: malformed entry", path);
    if (r < 1 || c < 1 || r > rows || c > cols) {
      io_fail("read_matrix_market: entry outside matrix bounds", path);
    }
    ++seen;
    const auto src = static_cast<VertexId>(r - 1);
    const auto dst = static_cast<VertexId>(c - 1);
    graph.add(src, dst);
    if (symmetric && src != dst) graph.add(dst, src);
  }
  if (seen != entries) io_fail("read_matrix_market: truncated entry list", path);
  return graph;
}

std::uint64_t text_footprint_bytes(const EdgeList& graph) {
  std::uint64_t bytes = 0;
  for (const Edge& e : graph.edges()) {
    bytes += static_cast<std::uint64_t>(decimal_digits(e.src)) +
             static_cast<std::uint64_t>(decimal_digits(e.dst)) + 2;  // '\t' and '\n'
  }
  return bytes;
}

}  // namespace pglb
