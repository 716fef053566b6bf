#include "src/base/wal.h"

#include "src/crypto/digest.h"
#include "src/util/codec.h"

namespace bftbase {

namespace {

constexpr size_t kPrefixSize = 4 + 8;     // body_len + checksum
constexpr size_t kMinBodySize = 1 + 8;    // type + seq
constexpr size_t kMaxBodySize = 1 << 30;  // sanity cap on decoded lengths

uint64_t ChainChecksum(uint64_t prev, BytesView body) {
  // SHA-256 over prev (u64, little-endian) followed by the body.
  Digest digest = Digest::Builder().Add(prev).Add(body).Build();
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(digest.array()[i]) << (8 * i);
  }
  return value;
}

}  // namespace

Bytes WriteAheadLog::EncodeRecord(uint64_t prev_checksum, uint8_t type,
                                  uint64_t seq, BytesView payload,
                                  uint64_t* checksum_out) {
  Encoder body;
  body.PutU8(type);
  body.PutU64(seq);
  body.PutFixed(payload);
  uint64_t checksum =
      ChainChecksum(prev_checksum, BytesView(body.data().data(), body.size()));
  Encoder record;
  record.PutU32(static_cast<uint32_t>(body.size()));
  record.PutU64(checksum);
  record.PutFixed(BytesView(body.data().data(), body.size()));
  *checksum_out = checksum;
  return record.Take();
}

void WriteAheadLog::Append(uint8_t type, uint64_t seq, BytesView payload) {
  uint64_t checksum = 0;
  Bytes record = EncodeRecord(chain_, type, seq, payload, &checksum);
  storage_->LogAppend(BytesView(record.data(), record.size()));
  chain_ = checksum;
  ++records_appended_;
}

void WriteAheadLog::Sync() { storage_->LogSync(); }

WriteAheadLog::ScanResult WriteAheadLog::Decode(BytesView log_bytes) {
  ScanResult result;
  size_t pos = 0;
  uint64_t chain = 0;
  while (pos < log_bytes.size()) {
    if (log_bytes.size() - pos < kPrefixSize) {
      result.torn_tail = true;
      break;
    }
    Decoder prefix(log_bytes.subspan(pos, kPrefixSize));
    size_t body_len = prefix.GetU32();
    uint64_t checksum = prefix.GetU64();
    if (body_len < kMinBodySize || body_len > kMaxBodySize ||
        log_bytes.size() - pos - kPrefixSize < body_len) {
      result.torn_tail = true;
      break;
    }
    BytesView body = log_bytes.subspan(pos + kPrefixSize, body_len);
    if (ChainChecksum(chain, body) != checksum) {
      result.torn_tail = true;
      break;
    }
    Decoder dec(body);
    Record record;
    record.type = dec.GetU8();
    record.seq = dec.GetU64();
    record.payload = dec.GetFixed(body_len - kMinBodySize);
    result.records.push_back(std::move(record));
    chain = checksum;
    pos += kPrefixSize + body_len;
  }
  result.valid_bytes = pos;
  result.dropped_bytes = log_bytes.size() - pos;
  result.tail_checksum = chain;
  return result;
}

WriteAheadLog::ScanResult WriteAheadLog::Recover() {
  Bytes log = storage_->ReadLog();
  ScanResult result = Decode(BytesView(log.data(), log.size()));
  if (result.dropped_bytes > 0) {
    // Cut the torn/corrupt suffix off the file so future appends extend a
    // clean log instead of being shadowed by garbage.
    log.resize(result.valid_bytes);
    storage_->LogRewrite(std::move(log));
  }
  chain_ = result.tail_checksum;
  return result;
}

void WriteAheadLog::TruncateThrough(SeqNum checkpoint_seq) {
  // Note: the rewrite covers buffered (unsynced) appends too — LogRewrite is
  // durable on return, so TruncateThrough implies a sync of anything
  // appended since the last Sync(). Call sites rely on this being at most a
  // no-op strengthening (every Append today is followed by a Sync).
  Bytes log = storage_->ReadLog();
  ScanResult scan = Decode(BytesView(log.data(), log.size()));

  // Keep only what recovery still needs: the latest installed view, the
  // latest stable-checkpoint proof, the batches past the durable checkpoint,
  // and the prepared certificates past the latest durable stable proof.
  const Record* latest_view = nullptr;
  const Record* latest_proof = nullptr;
  for (const Record& record : scan.records) {
    if (record.type == kViewMark &&
        (latest_view == nullptr || record.seq >= latest_view->seq)) {
      latest_view = &record;
    }
    if (record.type == kStableProof &&
        (latest_proof == nullptr || record.seq >= latest_proof->seq)) {
      latest_proof = &record;
    }
  }
  // A local checkpoint covers executed state, so batch records at or below
  // it are dead — but it is NOT yet provably stable, and the replica's
  // provable stable checkpoint (what its VIEW-CHANGE messages can claim) may
  // lag it until 2f+1 CHECKPOINT votes arrive. Prepared certificates in that
  // gap must survive a crash, or a restarted replica could neither prove the
  // newer checkpoint nor supply the certificates for the sequence numbers it
  // covers — and a committed batch's certificate could vanish from every
  // view-change quorum. So certificates are only dropped once a durable
  // kStableProof at >= their seq exists.
  const SeqNum prepared_cut = latest_proof != nullptr ? latest_proof->seq : 0;

  Bytes rewritten;
  uint64_t chain = 0;
  auto append = [&rewritten, &chain](const Record& record) {
    uint64_t checksum = 0;
    Bytes encoded = EncodeRecord(
        chain, record.type, record.seq,
        BytesView(record.payload.data(), record.payload.size()), &checksum);
    rewritten.insert(rewritten.end(), encoded.begin(), encoded.end());
    chain = checksum;
  };
  if (latest_view != nullptr) {
    append(*latest_view);
  }
  if (latest_proof != nullptr) {
    append(*latest_proof);
  }
  for (const Record& record : scan.records) {
    if (record.type == kBatch && record.seq > checkpoint_seq) {
      append(record);
    }
    if (record.type == kPrepared && record.seq > prepared_cut) {
      append(record);
    }
  }
  storage_->LogRewrite(std::move(rewritten));
  chain_ = chain;
}

}  // namespace bftbase
