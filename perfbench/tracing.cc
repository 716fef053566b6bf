#include "tracing.h"

#include <cstdio>

namespace perfbench {

using bftbase::Digest;
using bftbase::SeqNum;
using bftbase::ViewNum;

// --- Tracer -------------------------------------------------------------------

uint32_t Tracer::Begin(const char* name, int replica) {
  Span span;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.name = name;
  span.replica = replica;
  span.start_ns = WallNowNs();
  spans_.push_back(span);
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  Span& span = spans_[id - 1];
  span.end_ns = WallNowNs();
  stack_.pop_back();
  if (span.parent != 0) {
    spans_[span.parent - 1].child_ns += span.duration_ns();
  }
}

void Tracer::Clear() {
  spans_.clear();
  stack_.clear();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans_) {
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += span.duration_ns();
    t.self_ns += span.self_ns();
  }
  return totals;
}

int64_t Tracer::TotalSelfNs() const {
  int64_t sum = 0;
  for (const Span& span : spans_) {
    sum += span.self_ns();
  }
  return sum;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "id,parent,name,replica,start_ns,end_ns,self_ns\n");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(out, "%u,%u,%s,%d,%lld,%lld,%lld\n", s.id, s.parent,
                 s.name, s.replica,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.self_ns()));
  }
  return std::fclose(out) == 0;
}

// --- TracingAdapter -------------------------------------------------------------

TracingAdapter::TracingAdapter(std::unique_ptr<bftbase::ServiceAdapter> inner,
                               Tracer* tracer, int replica)
    : inner_(std::move(inner)), tracer_(tracer), replica_(replica) {
  inner_->SetModifyFn([this](size_t index) { NotifyModify(index); });
}

Bytes TracingAdapter::Execute(BytesView op, NodeId client, BytesView nondet,
                              bool tentative) {
  ScopedSpan span(tracer_, "adapter.execute", replica_);
  return inner_->Execute(op, client, nondet, tentative);
}

Bytes TracingAdapter::GetObj(size_t index) {
  ScopedSpan span(tracer_, "adapter.getobj", replica_);
  return inner_->GetObj(index);
}

void TracingAdapter::PutObjs(const std::vector<bftbase::ObjectUpdate>& objs) {
  ScopedSpan span(tracer_, "adapter.putobjs", replica_);
  inner_->PutObjs(objs);
}

// --- TracingFileSystem ------------------------------------------------------------

#define PERFBENCH_FS_CALL(expr)                          \
  ScopedSpan span(tracer_, span_name_, replica_);        \
  return inner_->expr

Bytes TracingFileSystem::Root() { PERFBENCH_FS_CALL(Root()); }
bftbase::FileSystem::AttrResult TracingFileSystem::GetAttr(const Bytes& fh) {
  PERFBENCH_FS_CALL(GetAttr(fh));
}
bftbase::FileSystem::AttrResult TracingFileSystem::SetAttr(
    const Bytes& fh, const bftbase::SetAttrs& attrs) {
  PERFBENCH_FS_CALL(SetAttr(fh, attrs));
}
bftbase::FileSystem::HandleResult TracingFileSystem::Lookup(
    const Bytes& dir_fh, const std::string& name) {
  PERFBENCH_FS_CALL(Lookup(dir_fh, name));
}
bftbase::FileSystem::ReadResult TracingFileSystem::Read(const Bytes& fh,
                                                        uint64_t offset,
                                                        uint32_t count) {
  PERFBENCH_FS_CALL(Read(fh, offset, count));
}
bftbase::FileSystem::AttrResult TracingFileSystem::Write(const Bytes& fh,
                                                         uint64_t offset,
                                                         BytesView data) {
  PERFBENCH_FS_CALL(Write(fh, offset, data));
}
bftbase::FileSystem::HandleResult TracingFileSystem::Create(
    const Bytes& dir_fh, const std::string& name,
    const bftbase::SetAttrs& attrs) {
  PERFBENCH_FS_CALL(Create(dir_fh, name, attrs));
}
bftbase::NfsStat TracingFileSystem::Remove(const Bytes& dir_fh,
                                           const std::string& name) {
  PERFBENCH_FS_CALL(Remove(dir_fh, name));
}
bftbase::NfsStat TracingFileSystem::Rename(const Bytes& from_dir,
                                           const std::string& from_name,
                                           const Bytes& to_dir,
                                           const std::string& to_name) {
  PERFBENCH_FS_CALL(Rename(from_dir, from_name, to_dir, to_name));
}
bftbase::FileSystem::HandleResult TracingFileSystem::Mkdir(
    const Bytes& dir_fh, const std::string& name,
    const bftbase::SetAttrs& attrs) {
  PERFBENCH_FS_CALL(Mkdir(dir_fh, name, attrs));
}
bftbase::NfsStat TracingFileSystem::Rmdir(const Bytes& dir_fh,
                                          const std::string& name) {
  PERFBENCH_FS_CALL(Rmdir(dir_fh, name));
}
bftbase::FileSystem::HandleResult TracingFileSystem::Symlink(
    const Bytes& dir_fh, const std::string& name, const std::string& target,
    const bftbase::SetAttrs& attrs) {
  PERFBENCH_FS_CALL(Symlink(dir_fh, name, target, attrs));
}
bftbase::FileSystem::ReadlinkResult TracingFileSystem::Readlink(
    const Bytes& fh) {
  PERFBENCH_FS_CALL(Readlink(fh));
}
bftbase::FileSystem::ReaddirResult TracingFileSystem::Readdir(
    const Bytes& dir_fh) {
  PERFBENCH_FS_CALL(Readdir(dir_fh));
}
bftbase::FileSystem::StatfsResult TracingFileSystem::Statfs() {
  PERFBENCH_FS_CALL(Statfs());
}
void TracingFileSystem::Restart() { PERFBENCH_FS_CALL(Restart()); }
void TracingFileSystem::Reset() { PERFBENCH_FS_CALL(Reset()); }
bool TracingFileSystem::CorruptObject(uint64_t fileid) {
  PERFBENCH_FS_CALL(CorruptObject(fileid));
}

#undef PERFBENCH_FS_CALL

// --- PhaseStats -----------------------------------------------------------------

void PhaseStats::Merge(const PhaseStats& other) {
  auto append = [](std::vector<int64_t>& to, const std::vector<int64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(prepare_us, other.prepare_us);
  append(commit_us, other.commit_us);
  append(execute_lag_us, other.execute_lag_us);
  append(stable_us, other.stable_us);
  append(view_change_us, other.view_change_us);
  checkpoints_taken += other.checkpoints_taken;
  stable_checkpoints += other.stable_checkpoints;
  new_views += other.new_views;
  state_transfer_us += other.state_transfer_us;
}

// --- PhaseObserver ------------------------------------------------------------------

void PhaseObserver::Phase(std::unordered_map<uint64_t, SimTime>& from,
                          uint64_t key, std::vector<int64_t>& out,
                          const char* name, NodeId replica,
                          std::unordered_map<uint64_t, SimTime>* next) {
  const SimTime now = sim_->Now();
  auto it = from.find(key);
  if (it != from.end()) {
    out.push_back(now - it->second);
    vspans_.push_back({name, replica, it->second, now});
    from.erase(it);
  }
  if (next != nullptr) {
    (*next)[key] = now;
  }
}

void PhaseObserver::NoteDigest(std::map<SeqNum, Digest>& seen, SeqNum seq,
                               const Digest& digest, NodeId replica,
                               const char* what) {
  auto [it, inserted] = seen.emplace(seq, digest);
  if (!inserted && it->second != digest && disagreement_.empty()) {
    disagreement_ = std::string(what) + " digest at seq " +
                    std::to_string(seq) + " differs at replica " +
                    std::to_string(replica);
  }
}

void PhaseObserver::OnPrePrepareAccepted(NodeId replica, ViewNum view,
                                         SeqNum seq, const Digest& digest) {
  if (record_) {
    pre_prepared_[Key(replica, seq)] = sim_->Now();
  }
  if (forward_ != nullptr) {
    forward_->OnPrePrepareAccepted(replica, view, seq, digest);
  }
}

void PhaseObserver::OnPrepared(NodeId replica, ViewNum view, SeqNum seq,
                               const Digest& digest) {
  if (record_) {
    Phase(pre_prepared_, Key(replica, seq), stats_.prepare_us, "bft.prepare",
          replica, &prepared_);
  }
  if (forward_ != nullptr) {
    forward_->OnPrepared(replica, view, seq, digest);
  }
}

void PhaseObserver::OnCommitted(NodeId replica, ViewNum view, SeqNum seq,
                                const Digest& digest) {
  if (record_) {
    Phase(prepared_, Key(replica, seq), stats_.commit_us, "bft.commit",
          replica, &committed_);
  }
  if (forward_ != nullptr) {
    forward_->OnCommitted(replica, view, seq, digest);
  }
}

void PhaseObserver::OnExecuted(NodeId replica, SeqNum seq,
                               const Digest& digest) {
  if (record_) {
    Phase(committed_, Key(replica, seq), stats_.execute_lag_us,
          "bft.execute_lag", replica, nullptr);
  }
  if (forward_ != nullptr) {
    forward_->OnExecuted(replica, seq, digest);
  }
}

void PhaseObserver::OnCheckpointTaken(NodeId replica, SeqNum seq,
                                      const Digest& state_digest,
                                      const Digest& reply_cache_digest) {
  NoteDigest(taken_digest_, seq, state_digest, replica, "checkpoint");
  ++stats_.checkpoints_taken;
  if (record_) {
    checkpoint_taken_[Key(replica, seq)] = sim_->Now();
  }
  if (forward_ != nullptr) {
    forward_->OnCheckpointTaken(replica, seq, state_digest,
                                reply_cache_digest);
  }
}

void PhaseObserver::OnCheckpointStable(NodeId replica, SeqNum seq,
                                       const Digest& digest) {
  if (stable_digest_.count(seq) == 0) {
    ++stats_.stable_checkpoints;
  }
  NoteDigest(stable_digest_, seq, digest, replica, "stable checkpoint");
  if (record_) {
    Phase(checkpoint_taken_, Key(replica, seq), stats_.stable_us,
          "base.checkpoint_stable", replica, nullptr);
  }
  if (forward_ != nullptr) {
    forward_->OnCheckpointStable(replica, seq, digest);
  }
}

void PhaseObserver::OnViewChangeStart(NodeId replica, ViewNum target) {
  if (stats_.first_view_change_start < 0) {
    stats_.first_view_change_start = sim_->Now();
  }
  if (forward_ != nullptr) {
    forward_->OnViewChangeStart(replica, target);
  }
}

void PhaseObserver::OnNewView(NodeId replica, ViewNum view) {
  if (view > 0 && views_installed_.insert(view).second) {
    ++stats_.new_views;
  }
  if (stats_.first_view_change_start >= 0 && stats_.view_change_us.empty()) {
    stats_.view_change_us.push_back(sim_->Now() -
                                    stats_.first_view_change_start);
    if (record_) {
      vspans_.push_back({"bft.view_change", replica,
                         stats_.first_view_change_start, sim_->Now()});
    }
  }
  if (forward_ != nullptr) {
    forward_->OnNewView(replica, view);
  }
}

void PhaseObserver::OnRecoveryStart(NodeId replica) {
  if (forward_ != nullptr) {
    forward_->OnRecoveryStart(replica);
  }
}

void PhaseObserver::OnRecoveryDone(NodeId replica, SeqNum seq) {
  if (forward_ != nullptr) {
    forward_->OnRecoveryDone(replica, seq);
  }
}

void PhaseObserver::OnStateTransferStart(NodeId replica, SeqNum seq) {
  state_transfer_start_[replica] = sim_->Now();
  if (forward_ != nullptr) {
    forward_->OnStateTransferStart(replica, seq);
  }
}

void PhaseObserver::OnStateTransferDone(NodeId replica, SeqNum seq) {
  auto it = state_transfer_start_.find(replica);
  if (it != state_transfer_start_.end()) {
    stats_.state_transfer_us += sim_->Now() - it->second;
    if (record_) {
      vspans_.push_back(
          {"base.state_transfer", replica, it->second, sim_->Now()});
    }
    state_transfer_start_.erase(it);
  }
  if (forward_ != nullptr) {
    forward_->OnStateTransferDone(replica, seq);
  }
}

}  // namespace perfbench
