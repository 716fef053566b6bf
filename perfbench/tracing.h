// Tracing for the benchmark's traced run, recorded entirely from outside the
// program through its public interfaces:
//
//   - Tracer keeps wall-clock spans in memory; nesting comes from a stack,
//     because the simulation runs on one thread, so a FileSystem call made
//     inside a ServiceAdapter::Execute becomes that span's child.
//   - TracingAdapter decorates a ServiceAdapter (Execute/GetObj/PutObjs) and
//     TracingFileSystem the FileSystem a conformance wrapper is built with.
//   - PhaseObserver is a ProtocolObserver on every replica. In every run it
//     checks that replicas agree on the checkpoint digest at each sequence
//     number; in the traced run it also records virtual-time phase spans and
//     forwards every callback to the InvariantAuditor, which would otherwise
//     own the replica's single observer slot.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/adapter.h"
#include "src/bft/observer.h"
#include "src/fs/file_system.h"
#include "src/sim/simulation.h"

namespace perfbench {

using bftbase::Bytes;
using bftbase::BytesView;
using bftbase::NodeId;
using bftbase::SimTime;

inline int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: no enclosing span
  const char* name = "";  // layer.operation, e.g. "adapter.execute", "fs.tree"
  int replica = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // part of [start, end) covered by child spans

  int64_t duration_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return duration_ns() - child_ns; }
};

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  // `name` must outlive the tracer (the decorators pass string literals).
  uint32_t Begin(const char* name, int replica);
  void End(uint32_t id);

  // Drops every span recorded so far (spans of set-up are not measured).
  void Clear();
  const std::vector<Span>& spans() const { return spans_; }
  // Per span name.
  std::map<std::string, SpanTotals> Totals() const;
  int64_t TotalSelfNs() const;
  // One span per line: id,parent,name,replica,start_ns,end_ns,self_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;  // ids of open spans, innermost last
};

// Opens a span for the lifetime of the object (no-op without a tracer).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int replica)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, replica) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// ServiceAdapter decorator. The library installs its modify hook on this
// object; the inner adapter's hook forwards to it, so copy-on-write
// snapshots still see every modification.
class TracingAdapter : public bftbase::ServiceAdapter {
 public:
  TracingAdapter(std::unique_ptr<bftbase::ServiceAdapter> inner,
                 Tracer* tracer, int replica);

  Bytes Execute(BytesView op, NodeId client, BytesView nondet,
                bool tentative) override;
  Bytes GetObj(size_t index) override;
  void PutObjs(const std::vector<bftbase::ObjectUpdate>& objs) override;
  size_t ObjectCount() const override { return inner_->ObjectCount(); }
  void RestartClean() override { inner_->RestartClean(); }
  Bytes ProposeNondet() override { return inner_->ProposeNondet(); }
  bool CheckNondet(BytesView nondet) override {
    return inner_->CheckNondet(nondet);
  }

 private:
  std::unique_ptr<bftbase::ServiceAdapter> inner_;
  Tracer* tracer_;
  int replica_;
};

// FileSystem decorator: every call is one "fs.<vendor>" span.
class TracingFileSystem : public bftbase::FileSystem {
 public:
  TracingFileSystem(std::unique_ptr<bftbase::FileSystem> inner,
                    const char* span_name, Tracer* tracer, int replica)
      : inner_(std::move(inner)),
        span_name_(span_name),
        tracer_(tracer),
        replica_(replica) {}

  Bytes Root() override;
  AttrResult GetAttr(const Bytes& fh) override;
  AttrResult SetAttr(const Bytes& fh, const bftbase::SetAttrs& attrs) override;
  HandleResult Lookup(const Bytes& dir_fh, const std::string& name) override;
  ReadResult Read(const Bytes& fh, uint64_t offset, uint32_t count) override;
  AttrResult Write(const Bytes& fh, uint64_t offset, BytesView data) override;
  HandleResult Create(const Bytes& dir_fh, const std::string& name,
                      const bftbase::SetAttrs& attrs) override;
  bftbase::NfsStat Remove(const Bytes& dir_fh,
                          const std::string& name) override;
  bftbase::NfsStat Rename(const Bytes& from_dir, const std::string& from_name,
                          const Bytes& to_dir,
                          const std::string& to_name) override;
  HandleResult Mkdir(const Bytes& dir_fh, const std::string& name,
                     const bftbase::SetAttrs& attrs) override;
  bftbase::NfsStat Rmdir(const Bytes& dir_fh,
                         const std::string& name) override;
  HandleResult Symlink(const Bytes& dir_fh, const std::string& name,
                       const std::string& target,
                       const bftbase::SetAttrs& attrs) override;
  ReadlinkResult Readlink(const Bytes& fh) override;
  ReaddirResult Readdir(const Bytes& dir_fh) override;
  StatfsResult Statfs() override;
  void Restart() override;
  void Reset() override;
  bool CorruptObject(uint64_t fileid) override;
  size_t MemoryFootprint() const override { return inner_->MemoryFootprint(); }
  const char* Vendor() const override { return inner_->Vendor(); }

 private:
  std::unique_ptr<bftbase::FileSystem> inner_;
  const char* span_name_;
  Tracer* tracer_;
  int replica_;
};

// Virtual-time phase statistics the observer collects in the traced run.
struct PhaseStats {
  std::vector<int64_t> prepare_us;     // pre-prepare accepted -> prepared
  std::vector<int64_t> commit_us;      // prepared -> committed
  std::vector<int64_t> execute_lag_us; // committed -> executed
  std::vector<int64_t> stable_us;      // checkpoint taken -> stable
  uint64_t checkpoints_taken = 0;      // summed over replicas
  uint64_t stable_checkpoints = 0;     // distinct stable sequence numbers
  uint64_t new_views = 0;              // distinct views installed after 0
  SimTime first_view_change_start = -1;
  // First view-change start -> first new view, once per deployment.
  std::vector<int64_t> view_change_us;
  SimTime state_transfer_us = 0;       // summed over transfers

  // Adds another deployment's statistics.
  void Merge(const PhaseStats& other);
};

class PhaseObserver : public bftbase::ProtocolObserver {
 public:
  // `forward` (may be null) receives every callback after this observer.
  PhaseObserver(bftbase::Simulation* sim, bool record_phases,
                bftbase::ProtocolObserver* forward)
      : sim_(sim), record_(record_phases), forward_(forward) {}

  // Empty while every replica agreed on every checkpoint digest.
  const std::string& disagreement() const { return disagreement_; }
  const PhaseStats& stats() const { return stats_; }
  // Trace records kept for the span file: (name, replica, start, end).
  struct VirtualSpan {
    const char* name;
    int replica;
    SimTime start_us;
    SimTime end_us;
  };
  const std::vector<VirtualSpan>& virtual_spans() const { return vspans_; }
  // Forgets phase samples (set-up traffic is not measured); checkpoint
  // agreement keeps its history.
  void ResetStats() {
    stats_ = PhaseStats();
    vspans_.clear();
  }

  void OnPrePrepareAccepted(NodeId replica, bftbase::ViewNum view,
                            bftbase::SeqNum seq,
                            const bftbase::Digest& digest) override;
  void OnPrepared(NodeId replica, bftbase::ViewNum view, bftbase::SeqNum seq,
                  const bftbase::Digest& digest) override;
  void OnCommitted(NodeId replica, bftbase::ViewNum view, bftbase::SeqNum seq,
                   const bftbase::Digest& digest) override;
  void OnExecuted(NodeId replica, bftbase::SeqNum seq,
                  const bftbase::Digest& digest) override;
  void OnCheckpointTaken(NodeId replica, bftbase::SeqNum seq,
                         const bftbase::Digest& state_digest,
                         const bftbase::Digest& reply_cache_digest) override;
  void OnCheckpointStable(NodeId replica, bftbase::SeqNum seq,
                          const bftbase::Digest& digest) override;
  void OnViewChangeStart(NodeId replica, bftbase::ViewNum target) override;
  void OnNewView(NodeId replica, bftbase::ViewNum view) override;
  void OnRecoveryStart(NodeId replica) override;
  void OnRecoveryDone(NodeId replica, bftbase::SeqNum seq) override;
  void OnStateTransferStart(NodeId replica, bftbase::SeqNum seq) override;
  void OnStateTransferDone(NodeId replica, bftbase::SeqNum seq) override;

 private:
  static uint64_t Key(NodeId replica, bftbase::SeqNum seq) {
    return (seq << 8) | static_cast<uint64_t>(replica & 0xff);
  }
  // Records `now - start[key]` into `out` (and a virtual span) if a start
  // is known, then moves the key to `next` (if any).
  void Phase(std::unordered_map<uint64_t, SimTime>& from, uint64_t key,
             std::vector<int64_t>& out, const char* name, NodeId replica,
             std::unordered_map<uint64_t, SimTime>* next);
  void NoteDigest(std::map<bftbase::SeqNum, bftbase::Digest>& seen,
                  bftbase::SeqNum seq, const bftbase::Digest& digest,
                  NodeId replica, const char* what);

  bftbase::Simulation* sim_;
  bool record_;
  bftbase::ProtocolObserver* forward_;
  std::map<bftbase::SeqNum, bftbase::Digest> taken_digest_;
  std::map<bftbase::SeqNum, bftbase::Digest> stable_digest_;
  std::string disagreement_;
  PhaseStats stats_;
  std::vector<VirtualSpan> vspans_;
  std::unordered_map<uint64_t, SimTime> pre_prepared_;
  std::unordered_map<uint64_t, SimTime> prepared_;
  std::unordered_map<uint64_t, SimTime> committed_;
  std::unordered_map<uint64_t, SimTime> checkpoint_taken_;
  std::set<bftbase::ViewNum> views_installed_;
  std::map<NodeId, SimTime> state_transfer_start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
