// Crypto hot-path microbenchmark (BENCH_crypto.json).
//
// The profile in DESIGN.md §11 attributes ~85% of bench_wallclock's CPU to
// SHA-256. This bench measures the crypto kernel's primitives in isolation,
// each shape taken from the protocol hot path:
//
//   envelope_digest    48-byte envelope digest (one-shot single compression)
//   hmac_digest32      HMAC over a 32-byte digest (midstate finalize x2)
//   authenticator_n4   full PBFT authenticator, n=4  (f=1 lane batch)
//   authenticator_n13  full PBFT authenticator, n=13 (f=4, two lane passes)
//   payload_digest_1k  1 KiB request payload digest (bulk compression)
//   checkpoint_batch   64 dirty checkpoint leaves (DigestMany lanes)
//   tree_grow_rehash   partition tree growing 256->4096 leaves in steps
//
// A second table times the simulation's content-keyed DigestCache at 256 B,
// 1 KiB, 8 KiB and 16 KiB (its size floor, a request, an Andrew write, its
// size cap): a hit (equal bytes in another buffer), a miss plus store (new
// bytes every iteration), and a plain kernel hash of the same input.
//
// Every hashing section runs the production code and the scalar oracle of
// tests/sha256_reference.h (sha256_internal::Compress with its own padding
// and HMAC) over the same inputs, checks the outputs are byte-identical, and
// reports wall time per op. The oracle's HMAC compresses each key's ipad and
// opad blocks once, outside the timed loop, so the MAC sections compare the
// same compressions per MAC and the speedup measures the SHA-NI and lane
// kernels, not midstate reuse. The tree section reports real node rehashes
// against the nodes the cost model charges: same-depth grows keep clean
// subtree digests and re-digest only genuinely stale paths.
//
// Usage: bench_crypto [--smoke] [--json PATH]
//   --smoke  shrink iteration counts (ctest's bench_crypto_smoke, which also
//            runs under the asan-ubsan preset — correctness only, no timing
//            gates)
//   --json   artifact path (default: BENCH_crypto.json)
//
// Exits nonzero if any kernel output diverges from the oracle, if the
// incremental rehash fails to cut real tree hashing below the charged
// rebuild, or (full runs on SHA-NI hardware) if the MAC/digest kernels lose
// their speed edge over the oracle.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/partition_tree.h"
#include "src/crypto/digest_cache.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_multi.h"
#include "src/util/hotpath.h"
#include "tests/sha256_reference.h"

using namespace bftbase;

namespace {

struct SectionResult {
  std::string name;
  uint64_t iters = 0;
  double reference_sec = 0;
  double kernel_sec = 0;
  bool outputs_match = false;
  // Real-work attribution deltas for the kernel run.
  uint64_t oneshot = 0;
  uint64_t ni_blocks = 0;
  uint64_t multi_blocks = 0;
  uint64_t lane_batches = 0;

  double Speedup() const {
    return kernel_sec > 0 ? reference_sec / kernel_sec : 0;
  }
  double NsPerOp(double sec) const {
    return iters > 0 ? sec * 1e9 / static_cast<double>(iters) : 0;
  }
};

// Folds a digest into the running checksum so the work cannot be elided and
// the two implementations can be compared for equality.
uint64_t Fold(uint64_t sum, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    sum = sum * 1099511628211ULL + data[i];
  }
  return sum;
}

template <typename Body>
double TimeLoop(uint64_t iters, uint64_t& checksum, Body body) {
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    checksum = body(checksum, i);
  }
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

// Runs `reference` (the scalar oracle) and `kernel` (production code) over
// the same iterations; each body folds its outputs into the checksum.
template <typename Reference, typename Kernel>
SectionResult RunSection(const std::string& name, uint64_t iters,
                         Reference reference, Kernel kernel) {
  SectionResult r;
  r.name = name;
  r.iters = iters;
  uint64_t reference_sum = 0;
  uint64_t kernel_sum = 0;
  r.reference_sec = TimeLoop(iters, reference_sum, reference);
  const hotpath::Counters before = hotpath::counters();
  r.kernel_sec = TimeLoop(iters, kernel_sum, kernel);
  const hotpath::Counters& after = hotpath::counters();
  r.oneshot = after.sha256_oneshot - before.sha256_oneshot;
  r.ni_blocks = after.sha256_ni_blocks - before.sha256_ni_blocks;
  r.multi_blocks = after.sha256_multi_blocks - before.sha256_multi_blocks;
  r.lane_batches = after.hmac_lane_batches - before.hmac_lane_batches;
  r.outputs_match = reference_sum == kernel_sum;
  return r;
}

struct CacheResult {
  size_t size = 0;
  uint64_t iters = 0;
  double hash_ns = 0;
  double hit_ns = 0;
  double miss_store_ns = 0;
  bool outputs_match = false;
};

template <typename Body>
double NsPerIter(uint64_t iters, Body body) {
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    body(i);
  }
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() * 1e9 /
         static_cast<double>(iters);
}

// Times DigestCache::Of against a plain Digest::Of for one input size. Each
// mode folds its digests into a checksum: the hits must fold to the plain
// hashes of the same input, the misses to plain hashes of the same fresh
// inputs.
CacheResult RunCacheSize(size_t size, uint64_t iters) {
  CacheResult r;
  r.size = size;
  r.iters = iters;
  Bytes input(size);
  for (size_t i = 0; i < size; ++i) {
    input[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  const Bytes copy = input;  // equal content, another buffer
  uint64_t plain_sum = 0;
  uint64_t hit_sum = 0;
  uint64_t fresh_sum = 0;
  uint64_t miss_sum = 0;
  r.hash_ns = NsPerIter(iters, [&](uint64_t) {
    Digest d = Digest::Of(input);
    plain_sum = Fold(plain_sum, d.array().data(), Digest::kSize);
  });
  DigestCache cache;
  cache.Of(input);
  r.hit_ns = NsPerIter(iters, [&](uint64_t) {
    Digest d = cache.Of(copy);
    hit_sum = Fold(hit_sum, d.array().data(), Digest::kSize);
  });
  // New bytes every iteration: each lookup misses, hashes and replaces a
  // slot (the first 8 bytes carry the iteration number).
  Bytes fresh = input;
  r.miss_store_ns = NsPerIter(iters, [&](uint64_t i) {
    std::memcpy(fresh.data(), &i, sizeof(i));
    Digest d = cache.Of(fresh);
    miss_sum = Fold(miss_sum, d.array().data(), Digest::kSize);
  });
  for (uint64_t i = 0; i < iters; ++i) {
    std::memcpy(fresh.data(), &i, sizeof(i));
    Digest d = Digest::Of(fresh);
    fresh_sum = Fold(fresh_sum, d.array().data(), Digest::kSize);
  }
  r.outputs_match = hit_sum == plain_sum && miss_sum == fresh_sum;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_crypto.json";
  int pool_threads = WorkerPool::ThreadsFromEnv(0);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      pool_threads = std::atoi(argv[++i]);
    }
  }
  // Sized pool => PairMacs authenticator batches shard across workers, so
  // the MAC sections measure the sharded path too.
  WorkerPool::Global().SetThreads(pool_threads > 0 ? pool_threads : 0);

  PrintHeader(smoke ? "Crypto kernel (smoke config)"
                    : "Crypto kernel: multi-lane SHA-256 hot paths");
  std::printf("SHA-NI: %s\n", sha256_multi::HasShaNi() ? "yes" : "no");

  std::vector<SectionResult> sections;

  // 48-byte envelope digest: the per-message digest every Seal/Open pays.
  {
    uint8_t buf[48];
    for (size_t i = 0; i < sizeof(buf); ++i) {
      buf[i] = static_cast<uint8_t>(i * 11 + 3);
    }
    sections.push_back(RunSection(
        "envelope_digest", smoke ? 3000 : 300000,
        [&](uint64_t sum, uint64_t i) {
          buf[0] = static_cast<uint8_t>(i);
          auto d = sha256_reference::Hash(BytesView(buf, sizeof(buf)));
          return Fold(sum, d.data(), d.size());
        },
        [&](uint64_t sum, uint64_t i) {
          buf[0] = static_cast<uint8_t>(i);
          auto d = Sha256::Hash(BytesView(buf, sizeof(buf)));
          return Fold(sum, d.data(), d.size());
        }));
  }

  // HMAC over a 32-byte digest: one MAC of an authenticator / reply seal.
  {
    const Bytes raw_key = ToBytes("bench-crypto-hmac-key");
    HmacKey key(raw_key);
    const sha256_reference::HmacMidstate reference_key(raw_key);
    uint8_t msg[32] = {};
    sections.push_back(RunSection(
        "hmac_digest32", smoke ? 2000 : 200000,
        [&](uint64_t sum, uint64_t i) {
          msg[0] = static_cast<uint8_t>(i);
          auto mac = reference_key.Mac(BytesView(msg, sizeof(msg)));
          return Fold(sum, mac.data(), mac.size());
        },
        [&](uint64_t sum, uint64_t i) {
          msg[0] = static_cast<uint8_t>(i);
          auto mac = key.Hmac(BytesView(msg, sizeof(msg)));
          return Fold(sum, mac.data(), mac.size());
        }));
  }

  // Full authenticators: the SealAuthenticated hot loop, one MAC per replica.
  for (int n : {4, 13}) {
    KeyTable keys(0xbadc0ffee, n + 2);
    std::vector<sha256_reference::HmacMidstate> reference_keys;
    for (int r = 0; r < n; ++r) {
      reference_keys.emplace_back(keys.SessionKey(n, r));
    }
    uint8_t msg[32] = {};
    std::vector<Mac> macs(n);
    sections.push_back(RunSection(
        "authenticator_n" + std::to_string(n), smoke ? 1000 : 50000,
        [&](uint64_t sum, uint64_t i) {
          msg[0] = static_cast<uint8_t>(i);
          for (const sha256_reference::HmacMidstate& reference_key :
               reference_keys) {
            auto mac = reference_key.Mac(BytesView(msg, sizeof(msg)));
            sum = Fold(sum, mac.data(), kMacSize);
          }
          return sum;
        },
        [&](uint64_t sum, uint64_t i) {
          msg[0] = static_cast<uint8_t>(i);
          keys.PairMacs(n, n, BytesView(msg, sizeof(msg)), macs.data());
          for (const Mac& mac : macs) {
            sum = Fold(sum, mac.data(), mac.size());
          }
          return sum;
        }));
  }

  // 1 KiB payload digest: request bodies and checkpoint values.
  {
    Bytes payload(1024);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 7);
    }
    sections.push_back(RunSection(
        "payload_digest_1k", smoke ? 1000 : 100000,
        [&](uint64_t sum, uint64_t i) {
          payload[0] = static_cast<uint8_t>(i);
          auto d = sha256_reference::Hash(payload);
          return Fold(sum, d.data(), d.size());
        },
        [&](uint64_t sum, uint64_t i) {
          payload[0] = static_cast<uint8_t>(i);
          auto d = Sha256::Hash(payload);
          return Fold(sum, d.data(), d.size());
        }));
  }

  // Checkpoint leaf batch: 64 dirty values digested per checkpoint.
  {
    constexpr size_t kLeaves = 64;
    std::vector<Bytes> values(kLeaves, Bytes(64));
    std::vector<BytesView> views;
    for (size_t l = 0; l < kLeaves; ++l) {
      for (size_t j = 0; j < values[l].size(); ++j) {
        values[l][j] = static_cast<uint8_t>(l * 31 + j);
      }
    }
    for (const Bytes& v : values) {
      views.emplace_back(v.data(), v.size());
    }
    uint8_t outs[kLeaves][Sha256::kDigestSize];
    sections.push_back(RunSection(
        "checkpoint_batch", smoke ? 100 : 5000,
        [&](uint64_t sum, uint64_t i) {
          values[0][0] = static_cast<uint8_t>(i);
          for (size_t l = 0; l < kLeaves; ++l) {
            auto d = sha256_reference::Hash(views[l]);
            sum = Fold(sum, d.data(), d.size());
          }
          return sum;
        },
        [&](uint64_t sum, uint64_t i) {
          values[0][0] = static_cast<uint8_t>(i);
          sha256_multi::DigestMany(views.data(), outs, kLeaves);
          for (size_t l = 0; l < kLeaves; ++l) {
            sum = Fold(sum, outs[l], Sha256::kDigestSize);
          }
          return sum;
        }));
  }

  // Growing partition tree: resize 256 -> 4096 leaves in 256-leaf steps with
  // a root digest after every step (the checkpoint cadence while a service's
  // state map fills). The cost model charges every grow as a full rebuild
  // (TakeRecomputedNodes: the nodes the rebuild-everything path hashed);
  // same-depth grows keep clean subtree digests and really re-digest only
  // stale paths (tree_nodes_rehashed).
  const uint64_t tree_repeats = smoke ? 2 : 40;
  uint64_t tree_charged = 0;
  uint64_t tree_sum = 0;
  const hotpath::Counters tree_before = hotpath::counters();
  const double tree_sec =
      TimeLoop(tree_repeats, tree_sum, [&](uint64_t sum, uint64_t rep) {
        PartitionTree tree(16);
        int set = 0;
        for (int leaves = 256; leaves <= 4096; leaves += 256) {
          tree.Resize(leaves);
          for (; set < leaves; ++set) {
            tree.SetLeaf(set, Digest::Of(ToBytes(
                                  "leaf" + std::to_string(set + rep))));
          }
          Digest root = tree.Root();
          sum = Fold(sum, root.array().data(), Digest::kSize);
        }
        tree_charged += tree.TakeRecomputedNodes();
        return sum;
      });
  const uint64_t tree_rehashed =
      hotpath::counters().tree_nodes_rehashed - tree_before.tree_nodes_rehashed;
  const uint64_t tree_preserved = hotpath::counters().tree_nodes_preserved -
                                  tree_before.tree_nodes_preserved;

  Table table({"section", "iters", "oracle ns/op", "kernel ns/op", "speedup",
               "one-shot", "lane batches"});
  bool outputs_ok = true;
  for (const SectionResult& s : sections) {
    char reference_ns[64];
    std::snprintf(reference_ns, sizeof(reference_ns), "%.0f",
                  s.NsPerOp(s.reference_sec));
    char kernel_ns[64];
    std::snprintf(kernel_ns, sizeof(kernel_ns), "%.0f",
                  s.NsPerOp(s.kernel_sec));
    table.AddRow({s.name, FormatCount(s.iters), reference_ns, kernel_ns,
                  FormatRatio(s.Speedup()), FormatCount(s.oneshot),
                  FormatCount(s.lane_batches)});
    outputs_ok = outputs_ok && s.outputs_match;
  }
  table.Print();

  std::vector<CacheResult> cache_results;
  for (size_t size : {size_t{256}, size_t{1024}, size_t{8192},
                      size_t{16384}}) {
    cache_results.push_back(
        RunCacheSize(size, (smoke ? 40000 : 4000000) / (size / 64 + 4)));
  }
  Table cache_table({"digest cache input", "iters", "kernel hash ns",
                     "hit ns", "miss+store ns", "hit speedup"});
  for (const CacheResult& c : cache_results) {
    char hash_ns[64];
    std::snprintf(hash_ns, sizeof(hash_ns), "%.0f", c.hash_ns);
    char hit_ns[64];
    std::snprintf(hit_ns, sizeof(hit_ns), "%.0f", c.hit_ns);
    char miss_ns[64];
    std::snprintf(miss_ns, sizeof(miss_ns), "%.0f", c.miss_store_ns);
    cache_table.AddRow({std::to_string(c.size) + " B", FormatCount(c.iters),
                        hash_ns, hit_ns, miss_ns,
                        FormatRatio(c.hit_ns > 0 ? c.hash_ns / c.hit_ns : 0)});
    outputs_ok = outputs_ok && c.outputs_match;
  }
  std::printf("\n");
  cache_table.Print();

  std::printf(
      "\ntree_grow_rehash (%llu repeats, %.0f us each): %llu nodes charged, "
      "%llu rehashed, %llu preserved\n",
      static_cast<unsigned long long>(tree_repeats),
      tree_sec * 1e6 / static_cast<double>(tree_repeats),
      static_cast<unsigned long long>(tree_charged),
      static_cast<unsigned long long>(tree_rehashed),
      static_cast<unsigned long long>(tree_preserved));

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "bench_crypto");
  json.Field("smoke", smoke);
  json.Field("sha_ni", sha256_multi::HasShaNi());
  json.Key("sections");
  json.BeginArray();
  for (const SectionResult& s : sections) {
    json.BeginObject();
    json.Field("name", s.name);
    json.Field("iters", s.iters);
    json.Field("reference_sec", s.reference_sec);
    json.Field("kernel_sec", s.kernel_sec);
    json.Field("reference_ns_per_op", s.NsPerOp(s.reference_sec));
    json.Field("kernel_ns_per_op", s.NsPerOp(s.kernel_sec));
    json.Field("speedup", s.Speedup());
    json.Field("outputs_match", s.outputs_match);
    json.Field("kernel_oneshot", s.oneshot);
    json.Field("kernel_ni_blocks", s.ni_blocks);
    json.Field("kernel_multi_blocks", s.multi_blocks);
    json.Field("kernel_lane_batches", s.lane_batches);
    json.EndObject();
  }
  json.EndArray();
  json.Key("tree_grow_rehash");
  json.BeginObject();
  json.Field("repeats", tree_repeats);
  json.Field("sec", tree_sec);
  json.Field("nodes_charged", tree_charged);
  json.Field("nodes_rehashed", tree_rehashed);
  json.Field("nodes_preserved", tree_preserved);
  json.EndObject();
  json.Key("digest_cache");
  json.BeginArray();
  for (const CacheResult& c : cache_results) {
    json.BeginObject();
    json.Field("bytes", static_cast<uint64_t>(c.size));
    json.Field("iters", c.iters);
    json.Field("kernel_hash_ns", c.hash_ns);
    json.Field("hit_ns", c.hit_ns);
    json.Field("miss_store_ns", c.miss_store_ns);
    json.Field("outputs_match", c.outputs_match);
    json.EndObject();
  }
  json.EndArray();
  EmitBenchMetadata(json, WorkerPool::Global().threads());
  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!outputs_ok) {
    std::printf(
        "FAILED: kernel or digest-cache outputs diverge from the oracle or "
        "plain hashing\n");
    return 1;
  }
  // The incremental rehash claim is deterministic: the tree must digest
  // strictly fewer real nodes than the rebuild-everything path charged.
  if (tree_rehashed >= tree_charged || tree_preserved == 0) {
    std::printf("FAILED: incremental rehash did not cut real tree hashing\n");
    return 1;
  }
  // Timing gates only for full runs on SHA-NI hardware; smoke runs (which
  // also execute under sanitizers) check correctness only.
  if (!smoke && sha256_multi::HasShaNi()) {
    auto find = [&](const char* name) -> const SectionResult& {
      for (const SectionResult& s : sections) {
        if (s.name == name) {
          return s;
        }
      }
      return sections.front();
    };
    bool fast = find("envelope_digest").Speedup() >= 1.2 &&
                find("authenticator_n4").Speedup() >= 1.2;
    if (!fast) {
      std::printf("FAILED: kernel lost its speed edge on SHA-NI hardware\n");
      return 1;
    }
  }
  return 0;
}
