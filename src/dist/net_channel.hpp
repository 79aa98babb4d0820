// A simulated network link between hosts of the virtual cluster: a
// thread-safe MPSC message queue with latency + bandwidth delay modeling,
// deterministic seeded loss, and traffic accounting. Stands in for the TCP
// streams of the paper's distributed deployment while keeping runs
// reproducible.
//
// Semantics:
//   - add_writer()/close_writer() bracket each producer; recv() returns
//     std::nullopt once every writer has closed and the queue is drained.
//     Prefer writer_guard so an exception (or a simulated host death)
//     never leaves a reader blocked on a writer that will not return.
//   - Messages from one writer are delivered in the order they were sent.
//   - Each message becomes available latency_s + serialisation time after
//     send(); the link serialises messages at bytes_per_s (0 = infinite).
//   - With drop_prob > 0, send() discards messages according to the seeded
//     loss stream; dropped traffic is counted but never delivered. With
//     dup_prob > 0, a delivered message may be enqueued twice; with
//     jitter_s > 0, a seeded uniform extra delay is added per message
//     (FIFO order preserved — a delayed message holds back what follows).
//     Each knob draws from its own seeded stream only when non-zero, so
//     enabling one never perturbs another's fault pattern.
//   - recv_for() is the timeout form: a consumer that must stay live when
//     a producer vanishes without closing (a dead host) waits in bounded
//     slices instead of blocking forever. Non-positive timeouts clamp to
//     an immediate poll; NaN is a precondition violation.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "dist/archive.hpp"
#include "dist/net_params.hpp"
#include "util/rng.hpp"

namespace dist {

class net_channel {
 public:
  net_channel() = default;
  explicit net_channel(net_params p)
      : params_(p),
        drop_rng_(p.drop_seed, 0),
        dup_rng_(p.drop_seed, 1),
        jitter_rng_(p.drop_seed, 2) {}

  net_channel(const net_channel&) = delete;
  net_channel& operator=(const net_channel&) = delete;

  /// Register one producer. Must be called before that producer send()s.
  void add_writer();

  /// Producer is done; the last close unblocks any pending recv().
  void close_writer();

  /// Enqueue one message (thread-safe). The message becomes visible to
  /// recv() after the modeled network delay — or is lost to the seeded
  /// drop stream and never delivered.
  void send(byte_buffer msg);

  /// Dequeue the next message, blocking until one is available or every
  /// writer has closed (then std::nullopt). Honours the modeled delivery
  /// time of the message. Only safe when every producer is guaranteed to
  /// close (writer_guard); a producer that dies without closing leaves
  /// this call blocked forever — use recv_for() when liveness must not
  /// depend on the far end.
  std::optional<byte_buffer> recv();

  /// Timeout form of recv(): waits at most `timeout_s` wall seconds for a
  /// message to become deliverable. Returns std::nullopt on timeout AND
  /// when the channel is closed+drained — disambiguate with drained().
  std::optional<byte_buffer> recv_for(double timeout_s);

  /// True once every writer has closed and the queue is empty (recv()
  /// would return std::nullopt immediately).
  bool drained() const;

  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;
  /// Messages/bytes lost to the seeded drop stream (never delivered, not
  /// counted in messages_sent()/bytes_sent()).
  std::uint64_t messages_dropped() const;
  std::uint64_t bytes_dropped() const;
  /// Extra copies enqueued by the seeded duplication stream (each copy is
  /// also counted in messages_sent(), since it is delivered).
  std::uint64_t messages_duplicated() const;
  const net_params& params() const noexcept { return params_; }

 private:
  using clock = std::chrono::steady_clock;

  struct in_flight {
    byte_buffer payload;
    clock::time_point deliver_at;
  };

  /// Pop the front message and model its in-flight delay outside the lock
  /// (senders are not blocked while the consumer "waits on the network").
  byte_buffer take_front(std::unique_lock<std::mutex>& lk);

  net_params params_{};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<in_flight> q_;
  clock::time_point link_free_at_{};  ///< when the link finishes the last send
  std::size_t writers_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t dropped_messages_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t duplicated_messages_ = 0;
  clock::time_point last_deliver_at_{};  ///< FIFO clamp under jitter
  util::rng_stream drop_rng_{};    ///< seeded loss stream (drop_prob > 0 only)
  util::rng_stream dup_rng_{};     ///< seeded duplication stream
  util::rng_stream jitter_rng_{};  ///< seeded extra-delay stream
};

/// RAII writer registration: closes the writer on every exit path, so an
/// exception unwinding a producer thread can never leave the consumer
/// blocked in recv() waiting for a close_writer() that will not come.
class writer_guard {
 public:
  explicit writer_guard(net_channel& ch) : ch_(&ch) { ch.add_writer(); }

  writer_guard(const writer_guard&) = delete;
  writer_guard& operator=(const writer_guard&) = delete;
  ~writer_guard() { close(); }

  /// Close early (idempotent); the destructor then does nothing.
  void close() {
    if (ch_ != nullptr) {
      ch_->close_writer();
      ch_ = nullptr;
    }
  }

 private:
  net_channel* ch_;
};

}  // namespace dist
