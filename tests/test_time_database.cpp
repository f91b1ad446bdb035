#include "core/time_database.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "core/profiler.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

TimeDatabase sample_db() {
  TimeDatabase db;
  db.record({AppKind::kPageRank, 2.1, "xeon_server_s"}, 10.0);
  db.record({AppKind::kPageRank, 2.1, "xeon_server_l"}, 2.5);
  db.record({AppKind::kPageRank, 1.95, "xeon_server_s"}, 20.0);
  db.record({AppKind::kPageRank, 1.95, "xeon_server_l"}, 4.0);
  return db;
}

TEST(TimeDatabase, RecordAndLookup) {
  const auto db = sample_db();
  EXPECT_EQ(db.size(), 4u);
  EXPECT_DOUBLE_EQ(*db.lookup({AppKind::kPageRank, 2.1, "xeon_server_s"}), 10.0);
  EXPECT_FALSE(db.lookup({AppKind::kColoring, 2.1, "xeon_server_s"}).has_value());
}

TEST(TimeDatabase, RecordOverwrites) {
  TimeDatabase db;
  db.record({AppKind::kPageRank, 2.1, "m"}, 1.0);
  db.record({AppKind::kPageRank, 2.1, "m"}, 2.0);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_DOUBLE_EQ(*db.lookup({AppKind::kPageRank, 2.1, "m"}), 2.0);
}

TEST(TimeDatabase, RejectsNonPositiveTimes) {
  TimeDatabase db;
  EXPECT_THROW(db.record({AppKind::kPageRank, 2.1, "m"}, 0.0), std::invalid_argument);
  EXPECT_THROW(db.record({AppKind::kPageRank, 2.1, "m"}, -1.0), std::invalid_argument);
}

TEST(TimeDatabase, RejectsNonFiniteAlpha) {
  // A NaN key would break the ordering std::map relies on.
  TimeDatabase db;
  for (const double alpha : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(db.record({AppKind::kPageRank, alpha, "m"}, 1.0), std::invalid_argument);
  }
  EXPECT_EQ(db.size(), 0u);
}

TEST(TimeDatabase, AlphasForAppSortedUnique) {
  const auto db = sample_db();
  EXPECT_EQ(db.alphas_for(AppKind::kPageRank), (std::vector<double>{1.95, 2.1}));
  EXPECT_TRUE(db.alphas_for(AppKind::kColoring).empty());
}

TEST(TimeDatabase, CcrDerivedForAnyComposition) {
  const auto db = sample_db();
  // Composition 1: one of each.
  const auto two = testing::case2_cluster();
  const auto ccr2 = db.ccr_for(two, AppKind::kPageRank, 2.1);
  EXPECT_DOUBLE_EQ(ccr2[0], 1.0);
  EXPECT_DOUBLE_EQ(ccr2[1], 4.0);
  // Composition 2: S + L + L — no re-profiling, CCR still derivable.
  const Cluster three({machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l"),
                       machine_by_name("xeon_server_l")});
  const auto ccr3 = db.ccr_for(three, AppKind::kPageRank, 2.1);
  EXPECT_EQ(ccr3, (std::vector<double>{1.0, 4.0, 4.0}));
}

TEST(TimeDatabase, NearestAlphaSelected) {
  const auto db = sample_db();
  const auto cluster = testing::case2_cluster();
  // 1.9 is closer to the 1.95 entries (CCR 5.0) than to 2.1 (CCR 4.0).
  const auto ccr = db.ccr_for(cluster, AppKind::kPageRank, 1.9);
  EXPECT_DOUBLE_EQ(ccr[1], 5.0);
}

TEST(TimeDatabase, MissingMachineThrows) {
  const auto db = sample_db();
  const auto cluster = testing::case1_cluster();  // m4/c4: never profiled
  EXPECT_THROW(db.ccr_for(cluster, AppKind::kPageRank, 2.1), std::out_of_range);
  EXPECT_THROW(db.ccr_for(testing::case2_cluster(), AppKind::kColoring, 2.1),
               std::out_of_range);
}

TEST(TimeDatabase, MissingMachinesListsOnlyUnknownTypes) {
  // profile_cluster runs only the cells the pool lacks: the known type costs
  // nothing, and the unknown type is profiled once per proxy.
  const ProxySuite suite(1.0 / 256.0);
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase db;
  profile_cluster(db, Cluster({machine_by_name("xeon_server_s")}), suite, apps);
  const Cluster mixed({machine_by_name("xeon_server_s"), machine_by_name("c4.xlarge"),
                       machine_by_name("c4.xlarge")});
  // c4.xlarge once, despite two instances.
  EXPECT_EQ(profile_cluster(db, mixed, suite, apps), suite.proxies().size());
  EXPECT_EQ(db.size(), 2 * suite.proxies().size());
  for (const ProxySuite::Proxy& proxy : suite.proxies()) {
    EXPECT_TRUE(db.lookup({AppKind::kPageRank, proxy.alpha, "c4.xlarge"}).has_value());
  }
}

TEST(TimeDatabase, SaveLoadRoundTrip) {
  const auto db = sample_db();
  const testing::ScratchDir scratch("pool");
  const std::string path = scratch.file("pool.tsv");
  save_time_database(db, path);
  const auto loaded = load_time_database(path);
  EXPECT_EQ(loaded.size(), db.size());
  EXPECT_DOUBLE_EQ(*loaded.lookup({AppKind::kPageRank, 1.95, "xeon_server_l"}), 4.0);
}

TEST(TimeDatabase, SaveLoadIsLocaleIndependent) {
  // Regression: the TSV writer/reader used iostream formatting, so under a
  // comma-decimal locale the file was written (and re-parsed) with ','
  // decimal points, breaking interchange with C-locale processes.
  const std::string previous = std::setlocale(LC_NUMERIC, nullptr);
  bool available = false;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      available = true;
      break;
    }
  }
  if (!available) GTEST_SKIP() << "no comma-decimal locale installed";

  const auto db = sample_db();
  const testing::ScratchDir scratch("pool");
  const std::string path = scratch.file("pool.tsv");
  save_time_database(db, path);
  const auto loaded = load_time_database(path);
  std::setlocale(LC_NUMERIC, previous.c_str());

  EXPECT_EQ(loaded.size(), db.size());
  EXPECT_DOUBLE_EQ(*loaded.lookup({AppKind::kPageRank, 2.1, "xeon_server_s"}), 10.0);
  EXPECT_DOUBLE_EQ(*loaded.lookup({AppKind::kPageRank, 1.95, "xeon_server_l"}), 4.0);
}

TEST(TimeDatabase, SavedFileUsesDotDecimalPoints) {
  const auto db = sample_db();
  const testing::ScratchDir scratch("pool");
  const std::string path = scratch.file("pool.tsv");
  save_time_database(db, path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.find(','), std::string::npos);
  EXPECT_NE(content.find("1.95"), std::string::npos);
}

TEST(TimeDatabase, WritesV2HeaderAndStillLoadsV1Files) {
  // v2 flags the switch from precision(17) iostream numbers to shortest
  // round-trip form; v1 files written by older builds must keep loading.
  const testing::ScratchDir scratch("pool");
  const std::string v2_path = scratch.file("v2.tsv");
  save_time_database(sample_db(), v2_path);
  {
    std::ifstream in(v2_path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "# pglb-ccr-pool v2");
  }

  const std::string v1_path = scratch.file("v1.tsv");
  {
    std::ofstream out(v1_path);
    out << "# pglb-ccr-pool v1\n"
        << "pagerank\t2.1000000000000001\txeon_server_s\t10\n";
  }
  const auto loaded = load_time_database(v1_path);
  EXPECT_DOUBLE_EQ(*loaded.lookup({AppKind::kPageRank, 2.1, "xeon_server_s"}), 10.0);
}

TEST(TimeDatabase, LoadRejectsCorruptFiles) {
  const testing::ScratchDir scratch("pool");
  const std::string bad_header = scratch.file("bad1.tsv");
  {
    std::ofstream out(bad_header);
    out << "not a pool file\n";
  }
  EXPECT_THROW(load_time_database(bad_header), std::runtime_error);

  const std::string bad_row = scratch.file("bad2.tsv");
  {
    std::ofstream out(bad_row);
    out << "# pglb-ccr-pool v1\npagerank\tnot_a_number\tm\t1.0\n";
  }
  EXPECT_THROW(load_time_database(bad_row), std::runtime_error);

  // from_chars accepts "nan" and "inf": a non-finite alpha, or seconds that
  // are not finite and positive, is a parse error naming the row's line.
  for (const char* row : {"pagerank\tnan\txeon_server_s\t9",
                          "pagerank\tinf\txeon_server_s\t9",
                          "pagerank\t2.3\txeon_server_s\tinf",
                          "pagerank\t2.3\txeon_server_s\tnan",
                          "pagerank\t2.3\txeon_server_s\t0",
                          "pagerank\t2.3\txeon_server_s\t-1"}) {
    const std::string path = scratch.file("bad3.tsv");
    {
      std::ofstream out(path);
      out << "# pglb-ccr-pool v2\npagerank\t2.3\txeon_server_s\t4\n" << row << "\n";
    }
    try {
      load_time_database(path);
      ADD_FAILURE() << "loaded: " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("parse error at line 3"), std::string::npos)
          << row << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << row << " threw a non-runtime_error: " << e.what();
    }
  }

  EXPECT_THROW(load_time_database("/no/such/file.tsv"), std::runtime_error);
}

}  // namespace
}  // namespace pglb
