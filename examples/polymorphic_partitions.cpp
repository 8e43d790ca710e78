// Polymorphic partitioning demo (Figure 5 of the paper): one SALES table whose
// recent partition is a transactional heap, whose older partition is a
// compressed append-optimized column store, and whose archive partition is an
// external CSV file — queried transparently through the root table.
//
//   $ ./polymorphic_partitions
#include <cstdio>
#include <fstream>

#include "api/gphtap.h"

using namespace gphtap;  // NOLINT(build/namespaces): example code

int main() {
  ClusterOptions options;
  options.num_segments = 4;
  Cluster cluster(options);
  auto session = cluster.Connect();

  // The archive partition's external file (prior years' sales, Figure 5).
  std::string archive = "/tmp/gphtap_sales_archive.csv";
  {
    std::ofstream f(archive, std::ios::trunc);
    for (int day = 0; day < 100; ++day) {
      f << day << "," << (day * 3) << "\n";  // day, amount
    }
  }

  // days [0,100) = external archive; [100,200) = AO-column with RLE;
  // [200,300) = hot heap partition that takes the OLTP traffic.
  auto create = session->Execute(
      "CREATE TABLE sales (day int, amount int) DISTRIBUTED BY (day) "
      "PARTITION BY RANGE (day) ("
      "  PARTITION hot START 200 END 300,"
      "  PARTITION cold START 100 END 200 WITH (appendonly=true, orientation=column, "
      "                                         compresstype=rle),"
      "  PARTITION archive START 0 END 100 EXTERNAL '" + archive + "')");
  if (!create.ok()) {
    std::printf("create failed: %s\n", create.status().ToString().c_str());
    return 1;
  }

  int failures = 0;  // statements that failed; a non-zero exit status reports them
  auto show = [&](const char* label, const std::string& sql) {
    auto r = session->Execute(sql);
    if (!r.ok()) {
      std::printf("%s: ERROR %s\n", label, r.status().ToString().c_str());
      ++failures;
      return;
    }
    std::printf("%s\n%s\n", label, r->ToString().c_str());
  };

  // Bulk-load the cold partition; trickle the hot one like OLTP traffic.
  show("-- load the cold tier:",
       "INSERT INTO sales SELECT i, i * 2 FROM generate_series(100, 199) i");
  show("-- load the hot tier:", "INSERT INTO sales SELECT i, i FROM generate_series(200, 299) i");
  show("-- OLTP update in the hot tier:",
       "UPDATE sales SET amount = amount + 1000 WHERE day = 250");

  // One query spanning heap + AO-column + external storage.
  show("-- total sales across all three storage tiers:",
       "SELECT count(*) AS rows, sum(amount) AS total FROM sales");
  show("-- archive tier only (reads the CSV):",
       "SELECT count(*), sum(amount) FROM sales WHERE day < 100");
  show("-- cold tier only (decompresses RLE column blocks):",
       "SELECT count(*), sum(amount) FROM sales WHERE day >= 100 AND day < 200");
  show("-- hot tier point read (sees the OLTP update):",
       "SELECT amount FROM sales WHERE day = 250");

  std::printf("The executor is storage-agnostic: the same scan operator read a heap,\n"
              "a compressed column store, and a CSV file behind one partitioned table.\n");
  std::remove(archive.c_str());
  return failures == 0 ? 0 : 1;
}
