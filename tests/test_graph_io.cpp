#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "gen/erdos_renyi.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) { return scratch_.file(name); }

  testing::ScratchDir scratch_{"io_test"};
};

TEST_F(GraphIoTest, TextRoundTrip) {
  ErdosRenyiConfig config;
  config.num_vertices = 50;
  config.num_edges = 200;
  const auto g = generate_erdos_renyi(config);

  const auto path = temp_path("round.txt");
  write_edge_list_text(g, path);
  const auto loaded = read_edge_list_text(path);

  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) EXPECT_EQ(loaded.edge(i), g.edge(i));
}

TEST_F(GraphIoTest, TextSkipsCommentsAndAcceptsSpaces) {
  const auto path = temp_path("snap.txt");
  {
    std::ofstream out(path);
    out << "# a SNAP-style header\n0\t1\n# interior comment\n2 3\n\n";
  }
  const auto g = read_edge_list_text(path);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge(0), (Edge{0, 1}));
  EXPECT_EQ(g.edge(1), (Edge{2, 3}));
  EXPECT_EQ(g.num_vertices(), 4u);
}

TEST_F(GraphIoTest, TextRejectsGarbage) {
  const auto path = temp_path("bad.txt");
  {
    std::ofstream out(path);
    out << "0\tnot_a_number\n";
  }
  EXPECT_THROW(read_edge_list_text(path), std::runtime_error);
}

TEST_F(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_text("/nonexistent/path/x.txt"), std::runtime_error);
  EXPECT_THROW(read_edge_list_binary("/nonexistent/path/x.bin"), std::runtime_error);
}

TEST_F(GraphIoTest, BinaryRoundTripPreservesVertexSpace) {
  const auto g = testing::star_graph(9);
  const auto path = temp_path("round.bin");
  write_edge_list_binary(g, path);
  const auto loaded = read_edge_list_binary(path);
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) EXPECT_EQ(loaded.edge(i), g.edge(i));
}

TEST_F(GraphIoTest, BinaryRejectsBadMagic) {
  const auto path = temp_path("magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t junk[3] = {1, 2, 3};
    out.write(reinterpret_cast<const char*>(junk), sizeof junk);
  }
  EXPECT_THROW(read_edge_list_binary(path), std::runtime_error);
}

TEST_F(GraphIoTest, BinaryRejectsTruncatedData) {
  const auto g = testing::star_graph(9);
  const auto path = temp_path("trunc.bin");
  write_edge_list_binary(g, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  EXPECT_THROW(read_edge_list_binary(path), std::runtime_error);
}

TEST_F(GraphIoTest, MatrixMarketRoundTrip) {
  ErdosRenyiConfig config;
  config.num_vertices = 40;
  config.num_edges = 150;
  const auto g = generate_erdos_renyi(config);
  const auto path = temp_path("round.mtx");
  write_matrix_market(g, path);
  const auto loaded = read_matrix_market(path);
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) EXPECT_EQ(loaded.edge(i), g.edge(i));
}

TEST_F(GraphIoTest, MatrixMarketSymmetricExpandsBothDirections) {
  const auto path = temp_path("sym.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "% lower triangle only\n"
        << "3 3 2\n"
        << "2 1\n"
        << "3 3\n";  // diagonal entry expands once
  }
  const auto g = read_matrix_market(path);
  EXPECT_EQ(g.num_vertices(), 3u);
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edge(0), (Edge{1, 0}));
  EXPECT_EQ(g.edge(1), (Edge{0, 1}));
  EXPECT_EQ(g.edge(2), (Edge{2, 2}));
}

TEST_F(GraphIoTest, MatrixMarketRejectsBadInputs) {
  const auto no_banner = temp_path("nobanner.mtx");
  {
    std::ofstream out(no_banner);
    out << "3 3 1\n1 2\n";
  }
  EXPECT_THROW(read_matrix_market(no_banner), std::runtime_error);

  const auto rectangular = temp_path("rect.mtx");
  {
    std::ofstream out(rectangular);
    out << "%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n";
  }
  EXPECT_THROW(read_matrix_market(rectangular), std::runtime_error);

  const auto out_of_bounds = temp_path("oob.mtx");
  {
    std::ofstream out(out_of_bounds);
    out << "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 9\n";
  }
  EXPECT_THROW(read_matrix_market(out_of_bounds), std::runtime_error);

  const auto truncated = temp_path("trunc.mtx");
  {
    std::ofstream out(truncated);
    out << "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n";
  }
  EXPECT_THROW(read_matrix_market(truncated), std::runtime_error);
}

TEST_F(GraphIoTest, MatrixMarketSizeLineCannotOverReserve) {
  // A size line claiming 10^12 entries over a one-entry file used to reserve
  // from the header and die with std::bad_alloc; the reservation is bounded
  // by the file, so the read fails as the truncated list it is.
  const auto path = temp_path("huge_claim.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1000000000000\n1 2\n";
  }
  try {
    (void)read_matrix_market(path);
    FAIL() << "a truncated entry list must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("read_matrix_market: truncated entry list"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(GraphIoTest, TextReaderSniffsMatrixMarketBanner) {
  // A .mtx file fed to the SNAP-text reader must parse as MatrixMarket
  // (1-based ids, banner honored) with no format flag.
  const auto path = temp_path("sniff.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n"
        << "% comment\n"
        << "3 3 2\n"
        << "1 2\n"
        << "3 1\n";
  }
  const auto via_text = read_edge_list_text(path);
  const auto via_mtx = read_matrix_market(path);
  ASSERT_EQ(via_text.num_edges(), 2u);
  EXPECT_EQ(via_text.num_vertices(), via_mtx.num_vertices());
  for (EdgeId i = 0; i < via_text.num_edges(); ++i) {
    EXPECT_EQ(via_text.edge(i), via_mtx.edge(i));
  }
  EXPECT_EQ(via_text.edge(0), (Edge{0, 1}));  // 1-based on disk, 0-based here
}

TEST_F(GraphIoTest, TextReaderRejectsMalformedBanner) {
  // A "%%" first line that is not valid MatrixMarket is an error — it must
  // never fall back to being skipped as a SNAP comment.
  const auto path = temp_path("badbanner.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMonket matrix coordinate pattern general\n0\t1\n";
  }
  EXPECT_THROW(read_edge_list_text(path), std::runtime_error);

  // Even a bare "%%" first line trips the sniff: it must error as a broken
  // banner, not be skipped like a '#' comment.
  const auto stray = temp_path("stray.txt");
  {
    std::ofstream out(stray);
    out << "%% \n0\t1\n";
  }
  EXPECT_THROW(read_edge_list_text(stray), std::runtime_error);
}

TEST_F(GraphIoTest, TextFootprintMatchesActualFileSize) {
  ErdosRenyiConfig config;
  config.num_vertices = 1000;
  config.num_edges = 5000;
  const auto g = generate_erdos_renyi(config);
  const auto path = temp_path("footprint.txt");
  write_edge_list_text(g, path);
  const auto actual = std::filesystem::file_size(path);
  const auto estimated = text_footprint_bytes(g);
  // write_edge_list_text adds one comment header line on top of the payload.
  EXPECT_GT(actual, estimated);
  EXPECT_LT(actual - estimated, 120u);
}

}  // namespace
}  // namespace pglb
