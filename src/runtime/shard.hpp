#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "util/ids.hpp"

namespace nc {

/// Maximum number of shards a network is split into. The staging lanes form
/// a shards x shards matrix, so the count is capped well below anything a
/// real machine would ask for; NetConfig::threads above the cap is clamped.
inline constexpr unsigned kMaxShards = 256;

/// A contiguous partition of a graph's nodes into `shards()` ID ranges,
/// balanced by directed-edge count (plus one unit per node, so isolated
/// nodes spread too). Contiguity is what makes the sharded simulator's
/// merge order equal the global ascending-edge order: concatenating the
/// shards' sorted active sets in shard order IS the sorted global active
/// set, for every shard count. Shards may be empty (n < k).
struct ShardPlan {
  /// shards()+1 node offsets: shard s owns nodes [bounds[s], bounds[s+1]).
  std::vector<NodeId> bounds;

  /// Owning shard per node (n entries), precomputed for O(1) hot-path
  /// lookups (destination-lane selection, alarm/done bookkeeping).
  std::vector<std::uint32_t> node_shard;

  [[nodiscard]] unsigned shards() const noexcept {
    return bounds.empty() ? 0 : static_cast<unsigned>(bounds.size() - 1);
  }
  [[nodiscard]] NodeId begin(unsigned s) const noexcept { return bounds[s]; }
  [[nodiscard]] NodeId end(unsigned s) const noexcept {
    return bounds[s + 1];
  }
};

/// Partitions `g`'s nodes into `k` contiguous shards balanced by
/// weight(v) = degree(v) + 1. Deterministic: depends only on (g, k).
/// `k` is clamped to [1, kMaxShards].
ShardPlan plan_shards(const Graph& g, unsigned k);

/// Fixed pool of `threads - 1` workers plus the calling thread, dispatching
/// job indices [0, jobs) with an atomic cursor and barrier-waiting for all
/// of them — the simulator's phase executor. With threads <= 1 (or a
/// single job) everything runs inline on the caller, so a 1-shard network
/// never pays for synchronization. The first exception a job throws is
/// captured and rethrown from run() after the barrier.
class ShardPool {
 public:
  explicit ShardPool(unsigned threads);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Runs fn(0), ..., fn(jobs - 1) across the pool and the calling thread;
  /// returns when every job finished. Jobs must not touch shared mutable
  /// state (the simulator's phases hand each job its own shard — including
  /// the shard's bump arena and the staging lanes it writes; see the
  /// shard-owned/shared inventory in runtime/README.md).
  void run(unsigned jobs, const std::function<void(unsigned)>& fn);

  /// Workers spawned (0 = everything runs inline).
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  /// One run()'s state. Heap-allocated per run and shared with the workers
  /// that join it, so a worker still draining an old run can never claim a
  /// job of (or race with) a newer one: it only ever touches the state it
  /// was handed under the mutex.
  struct RunState {
    std::atomic<unsigned> next{0};           ///< claim cursor
    unsigned count = 0;                      ///< total jobs
    const std::function<void(unsigned)>* fn = nullptr;
    unsigned pending = 0;                    ///< guarded by the pool mutex
    std::exception_ptr first_error;          ///< guarded by the pool mutex
  };

  void worker_loop();
  void work(RunState& state);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<RunState> current_;  ///< guarded by the pool mutex
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace nc
