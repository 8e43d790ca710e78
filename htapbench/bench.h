// Shared pieces of the end-to-end benchmark: the span log of a traced run,
// the client that drives one session (plain SQL, or layer by layer through
// the public pipeline when traced), and the workload interface.
#ifndef HTAPBENCH_BENCH_H_
#define HTAPBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/gphtap.h"

namespace htapbench {

using gphtap::Cluster;
using gphtap::ClusterOptions;
using gphtap::QueryResult;
using gphtap::Session;
using gphtap::Status;
using gphtap::StatusOr;

int64_t NowNs();

enum class OpClass : uint8_t { kOltp = 0, kOlap = 1 };

// Span names; each is one layer boundary the benchmark calls across.
enum SpanName : uint8_t {
  kSpanOp,      // one operation (transaction or query), the root
  kSpanParse,   // ParseStatement
  kSpanBind,    // Analyzer::Bind*
  kSpanPlan,    // PlanSelect
  kSpanStmt,    // Session::Execute{Update,Insert,CachedPlan} of a transaction
  kSpanQuery,   // Session::ExecuteCachedPlan of an analytical query
  kSpanCommit,  // Session::Commit
  kSpanDecode,  // AoColumnTable::DecodeGroupBatch
  kNumSpanNames,
};
const char* SpanNameString(SpanName name);

struct Span {
  int64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same log, -1 for a root
  SpanName name = kSpanOp;
};

// The spans of one thread, kept in memory until the run ends. A span's parent
// is the innermost span still open when it starts.
class SpanLog {
 public:
  int32_t Open(SpanName name, int64_t op);
  void Close(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span for its lifetime; a no-op without a log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanName name, int64_t op)
      : log_(log), id_(log != nullptr ? log->Open(name, op) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

// One client session. Untraced, statements go through Session::Execute as
// any application's would. Traced (a SpanLog is set), each statement goes
// through the public functions that Session::Execute's SQL driver calls —
// ParseStatement, Analyzer::Bind*, the plan cache, PlanSelect and
// Session::Execute{Update,Insert,CachedPlan} — with one span per call.
class Client {
 public:
  explicit Client(Cluster* cluster);

  Session* session() { return session_.get(); }
  Cluster* cluster() { return cluster_; }
  bool traced() const { return log_ != nullptr; }
  SpanLog* log() { return log_; }
  void set_log(SpanLog* log) { log_ = log; }

  // The operation that the following statements belong to.
  void set_op(int64_t op) { op_ = op; }
  int64_t op() const { return op_; }

  // One statement in literal SQL. `olap` tags the execution span as an
  // analytical query; `plan_cache` = false mirrors EXECUTE of a prepared
  // statement that replans per call (no plan-cache lookup).
  StatusOr<QueryResult> Sql(const std::string& sql, bool olap, bool plan_cache);
  Status Begin();
  Status Commit();
  void Rollback();

 private:
  gphtap::PlannerOptions PlannerOptions() const;

  Cluster* const cluster_;
  SpanLog* log_ = nullptr;
  std::unique_ptr<Session> session_;
  int64_t op_ = 0;
};

// A stream is a set of clients claiming operations from one shared counter.
struct Stream {
  int clients = 1;
  int64_t ops_per_window = 0;
};

// A workload: its cluster, data, streams of fixed seeded operations, the
// untimed maintenance between windows, and the correctness checks.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual ClusterOptions Options() const = 0;
  // Timed set-up: load and index builds on a fresh cluster.
  virtual Status Load(Cluster* cluster) = 0;
  // Untimed warm-up: PREPAREs, one pass over the query texts, references.
  virtual Status WarmUp(std::vector<std::unique_ptr<Client>>& clients) = 0;
  // Operations per window of each stream.
  virtual std::vector<Stream> Streams() const = 0;
  // Runs operation `i` of stream `stream`; its inputs depend only on the seed,
  // the stream and `i`. Sets the operation's class.
  virtual Status RunOp(int stream, int64_t i, Client& client, OpClass* cls) = 0;
  // Untimed maintenance after each window (VACUUM of the hot tables).
  virtual Status BetweenWindows(Cluster* cluster) = 0;
  // Stored versions per live row of the hot tables.
  virtual double VersionsPerRow(Cluster* cluster) = 0;
  // End-of-run correctness checks, given the number of OLTP transactions
  // that committed; an error fails the run.
  virtual Status Check(Cluster* cluster, int64_t oltp_committed) = 0;
};

// `scale` multiplies the fixed work; `tiny` selects the self-check sizes.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale, bool tiny);

// Seed of operation `i` of `stream`.
uint64_t OpSeed(uint64_t seed, int stream, int64_t i);

// Result rows equal, doubles to a relative 1e-9 (engines may sum in
// different orders).
bool SameRows(const std::vector<gphtap::Row>& a, const std::vector<gphtap::Row>& b);

}  // namespace htapbench

#endif  // HTAPBENCH_BENCH_H_
