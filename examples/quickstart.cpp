// Quickstart: spin up an in-process MPP cluster, create distributed tables,
// load data, and run transactional + analytical SQL against it.
//
//   $ ./quickstart
#include <cstdio>

#include "api/gphtap.h"

using gphtap::Cluster;
using gphtap::ClusterOptions;
using gphtap::QueryResult;

namespace {

int failures = 0;  // statements that failed; a non-zero exit status reports them

void Run(gphtap::Session* session, const std::string& sql) {
  auto result = session->Execute(sql);
  std::printf("gphtap> %s\n", sql.c_str());
  if (!result.ok()) {
    std::printf("ERROR: %s\n\n", result.status().ToString().c_str());
    ++failures;
    return;
  }
  std::printf("%s\n", result->ToString().c_str());
}

}  // namespace

int main() {
  // A coordinator plus four worker segments, all in this process.
  ClusterOptions options;
  options.num_segments = 4;
  Cluster cluster(options);
  auto session = cluster.Connect();

  // DDL: hash-distributed fact table and a replicated dimension table.
  Run(session.get(),
      "CREATE TABLE sales (sale_id int, region_id int, amount double) "
      "DISTRIBUTED BY (sale_id)");
  Run(session.get(),
      "CREATE TABLE regions (region_id int, name text) DISTRIBUTED REPLICATED");

  // Load: generate_series works like in the paper's examples.
  Run(session.get(),
      "INSERT INTO sales SELECT i, i % 4, i + 0.5 FROM generate_series(1, 1000) i");
  Run(session.get(),
      "INSERT INTO regions VALUES (0, 'north'), (1, 'south'), (2, 'east'), (3, 'west')");

  // Point query: direct-dispatched to the one segment owning sale_id 42.
  Run(session.get(), "SELECT amount FROM sales WHERE sale_id = 42");

  // Analytical query: distributed join + two-phase aggregation + sort.
  Run(session.get(),
      "SELECT r.name, count(*) AS sales, sum(s.amount) AS revenue "
      "FROM sales s JOIN regions r ON s.region_id = r.region_id "
      "GROUP BY r.name ORDER BY revenue DESC");

  // Transactions: snapshot isolation across sessions.
  auto other = cluster.Connect();
  Run(session.get(), "BEGIN");
  Run(session.get(), "UPDATE sales SET amount = amount + 100 WHERE sale_id = 1");
  std::printf("-- other session, before commit (sees the old value):\n");
  Run(other.get(), "SELECT amount FROM sales WHERE sale_id = 1");
  Run(session.get(), "COMMIT");
  std::printf("-- other session, after commit:\n");
  Run(other.get(), "SELECT amount FROM sales WHERE sale_id = 1");

  // Where did the rows actually go? One shard per segment.
  auto def = cluster.LookupTable("sales");
  for (int i = 0; i < cluster.num_segments(); ++i) {
    std::printf("segment %d holds %llu row versions of sales\n", i,
                static_cast<unsigned long long>(
                    cluster.segment(i)->GetTable(def->id)->StoredVersionCount()));
  }
  return failures == 0 ? 0 : 1;
}
