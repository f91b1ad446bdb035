// Cross-format equivalence: the three on-disk formats must describe the same
// graph, and downstream results must be independent of the format used.

#include <gtest/gtest.h>

#include <filesystem>

#include "apps/reference.hpp"
#include "gen/powerlaw.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

class CrossFormatIo : public ::testing::Test {
 protected:
  static EdgeList graph() {
    PowerLawConfig config;
    config.num_vertices = 3000;
    config.alpha = 2.1;
    config.seed = 131;
    return generate_powerlaw(config);
  }

  std::string temp(const std::string& name) { return scratch_.file(name); }

  testing::ScratchDir scratch_{"xfmt"};
};

TEST_F(CrossFormatIo, AllFormatsRoundTripIdentically) {
  const auto g = graph();
  const auto txt = temp("g.txt");
  const auto bin = temp("g.bin");
  const auto mtx = temp("g.mtx");
  write_edge_list_text(g, txt);
  write_edge_list_binary(g, bin);
  write_matrix_market(g, mtx);

  const auto from_txt = read_edge_list_text(txt);
  const auto from_bin = read_edge_list_binary(bin);
  const auto from_mtx = read_matrix_market(mtx);

  ASSERT_EQ(from_txt.num_edges(), g.num_edges());
  ASSERT_EQ(from_bin.num_edges(), g.num_edges());
  ASSERT_EQ(from_mtx.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); i += 7) {
    EXPECT_EQ(from_txt.edge(i), g.edge(i));
    EXPECT_EQ(from_bin.edge(i), g.edge(i));
    EXPECT_EQ(from_mtx.edge(i), g.edge(i));
  }
}

TEST_F(CrossFormatIo, DownstreamResultsAreFormatIndependent) {
  const auto g = graph();
  const auto bin = temp("d.bin");
  const auto mtx = temp("d.mtx");
  write_edge_list_binary(g, bin);
  write_matrix_market(g, mtx);

  const auto a = read_edge_list_binary(bin);
  const auto b = read_matrix_market(mtx);
  EXPECT_EQ(triangle_count_reference(a), triangle_count_reference(g));
  EXPECT_EQ(triangle_count_reference(b), triangle_count_reference(g));
  EXPECT_EQ(connected_components_reference(a), connected_components_reference(b));
  EXPECT_EQ(compute_stats(a).footprint_bytes, compute_stats(b).footprint_bytes);
}

TEST_F(CrossFormatIo, BinaryIsSmallerTextIsPortableMtxInterops) {
  const auto g = graph();
  const auto txt = temp("s.txt");
  const auto bin = temp("s.bin");
  write_edge_list_text(g, txt);
  write_edge_list_binary(g, bin);
  EXPECT_LT(std::filesystem::file_size(bin),
            std::filesystem::file_size(txt) + 24);  // header bytes slack
}

}  // namespace
}  // namespace pglb
