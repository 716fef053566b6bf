// BFT protocol message types and their wire encodings.
//
// Every message is carried inside an authenticated envelope (see channel.h).
// Decoding never trusts input: all Decode functions validate sizes and
// return an error Status on malformed bytes, since Byzantine nodes may send
// arbitrary garbage.
//
// Message set (PBFT, Castro-Liskov OSDI'99, plus the BASE state-transfer
// messages which are opaque to this layer):
//   REQUEST      client -> replicas     operation to execute
//   PRE-PREPARE  primary -> backups     assigns a sequence number to a batch
//   PREPARE      backup -> replicas     agreement round 1
//   COMMIT       replica -> replicas    agreement round 2
//   REPLY        replica -> client      operation result
//   CHECKPOINT   replica -> replicas    state digest at a checkpoint seq
//   VIEW-CHANGE  replica -> replicas    primary suspected faulty
//   NEW-VIEW     new primary -> backups installs the next view
//   STATE        replica <-> replica    abstract state transfer (base layer)
#ifndef SRC_BFT_MESSAGE_H_
#define SRC_BFT_MESSAGE_H_

#include <optional>
#include <vector>

#include "src/bft/config.h"
#include "src/crypto/digest.h"
#include "src/crypto/digest_cache.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace bftbase {

enum class MsgType : uint8_t {
  kRequest = 1,
  kPrePrepare = 2,
  kPrepare = 3,
  kCommit = 4,
  kReply = 5,
  kCheckpoint = 6,
  kViewChange = 7,
  kNewView = 8,
  kState = 9,
};

const char* MsgTypeName(MsgType type);

struct RequestMsg {
  NodeId client = 0;
  uint64_t timestamp = 0;  // per-client monotonically increasing request id
  bool read_only = false;
  Bytes op;

  Bytes Encode() const;
  static Result<RequestMsg> Decode(BytesView data);
  // Identity of the request: covers client, timestamp and operation.
  Digest ComputeDigest() const;
};

struct PrePrepareMsg {
  ViewNum view = 0;
  SeqNum seq = 0;
  // Agreed non-deterministic input for the batch (e.g. the operation
  // timestamp for the NFS wrapper), proposed by the primary.
  Bytes nondet;
  // Encoded RequestMsgs batched under this sequence number.
  std::vector<Bytes> requests;

  Bytes Encode() const;
  static Result<PrePrepareMsg> Decode(BytesView data);
  // The batch digest d in (v, n, d): covers nondet and all requests (not the
  // view/seq, which identify the slot, not the content). The per-request
  // digests go through `cache`.
  Digest ComputeDigest(DigestCache& cache) const;
};

struct PrepareMsg {
  ViewNum view = 0;
  SeqNum seq = 0;
  Digest digest;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<PrepareMsg> Decode(BytesView data);
};

struct CommitMsg {
  ViewNum view = 0;
  SeqNum seq = 0;
  Digest digest;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<CommitMsg> Decode(BytesView data);
};

struct ReplyMsg {
  ViewNum view = 0;
  uint64_t timestamp = 0;
  NodeId client = 0;
  NodeId replica = 0;
  // Tentative replies come from the read-only optimization; the client needs
  // a larger quorum (2f+1) for them.
  bool tentative = false;
  // With the digest-reply optimization only the designated replier sends the
  // full result; the others send its digest.
  bool result_is_digest = false;
  Bytes result;

  Bytes Encode() const;
  static Result<ReplyMsg> Decode(BytesView data);
  // Digest of the actual result, used by clients to match replies. A full
  // result is hashed through `cache`.
  Digest ResultDigest(DigestCache& cache) const {
    return result_is_digest ? Digest::FromBytes(result) : cache.Of(result);
  }
};

struct CheckpointMsg {
  SeqNum seq = 0;
  Digest state_digest;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<CheckpointMsg> Decode(BytesView data);
};

// A transferable proof that a request prepared at some replica: the signed
// pre-prepare plus 2f signed prepares with matching (view, seq, digest).
// Stored as raw wire envelopes so any replica can re-verify the signatures.
struct PreparedProof {
  Bytes pre_prepare_wire;
  std::vector<Bytes> prepare_wires;

  void EncodeTo(class Encoder& enc) const;
  static Result<PreparedProof> DecodeFrom(class Decoder& dec);
};

struct ViewChangeMsg {
  ViewNum new_view = 0;
  // Last stable checkpoint known to the sender and its proof: 2f+1 signed
  // CHECKPOINT envelopes with matching (seq, digest).
  SeqNum stable_seq = 0;
  Digest stable_digest;
  std::vector<Bytes> checkpoint_proof;
  // Prepared certificates for requests above stable_seq.
  std::vector<PreparedProof> prepared;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<ViewChangeMsg> Decode(BytesView data);
};

struct NewViewMsg {
  ViewNum view = 0;
  // 2f+1 signed VIEW-CHANGE envelopes justifying the new view.
  std::vector<Bytes> view_changes;
  // Signed PRE-PREPARE envelopes for the new view, recomputed by backups.
  std::vector<Bytes> pre_prepares;

  Bytes Encode() const;
  static Result<NewViewMsg> Decode(BytesView data);
};

}  // namespace bftbase

#endif  // SRC_BFT_MESSAGE_H_
