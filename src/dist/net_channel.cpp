#include "dist/net_channel.hpp"

#include <cmath>
#include <thread>

#include "util/check.hpp"

namespace dist {

namespace {

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

void net_channel::add_writer() {
  std::lock_guard<std::mutex> lk(mu_);
  ++writers_;
}

void net_channel::close_writer() {
  std::lock_guard<std::mutex> lk(mu_);
  if (writers_ > 0) --writers_;
  if (writers_ == 0) cv_.notify_all();
}

void net_channel::send(byte_buffer msg) {
  std::lock_guard<std::mutex> lk(mu_);

  // Loss model: one draw per send from the seeded stream, so a given send
  // sequence loses the same messages on every run. drop_prob == 0 (the
  // default) never draws — bit-exact with the lossless channel.
  if (params_.drop_prob > 0.0 &&
      drop_rng_.next_uniform() < params_.drop_prob) {
    ++dropped_messages_;
    dropped_bytes_ += msg.size();
    return;
  }

  const auto now = clock::now();

  // Serialisation occupies the link for size/bandwidth seconds; messages
  // queue behind whatever the link is still transmitting.
  auto start = now > link_free_at_ ? now : link_free_at_;
  if (params_.bytes_per_s > 0.0) {
    const auto tx = to_duration(static_cast<double>(msg.size()) /
                                params_.bytes_per_s);
    link_free_at_ = start + tx;
  } else {
    link_free_at_ = start;
  }
  const auto latency = to_duration(params_.latency_s);

  auto deliver_at = link_free_at_ + latency;
  if (params_.jitter_s > 0.0)
    deliver_at += to_duration(jitter_rng_.next_uniform() * params_.jitter_s);
  // FIFO clamp: recv_for() relies on delivery times being monotone in send
  // order, so a jittered message delays everything behind it (a congested
  // link) instead of being overtaken.
  if (deliver_at < last_deliver_at_) deliver_at = last_deliver_at_;
  last_deliver_at_ = deliver_at;

  ++messages_;
  bytes_ += msg.size();
  // Duplication model: the copy is a retransmit racing its original —
  // delivered immediately behind it, and counted as delivered traffic.
  const bool duplicate =
      params_.dup_prob > 0.0 && dup_rng_.next_uniform() < params_.dup_prob;
  if (duplicate) {
    ++duplicated_messages_;
    ++messages_;
    bytes_ += msg.size();
    q_.push_back(in_flight{msg, deliver_at});
  }
  q_.push_back(in_flight{std::move(msg), deliver_at});
  cv_.notify_one();
}

byte_buffer net_channel::take_front(std::unique_lock<std::mutex>& lk) {
  in_flight m = std::move(q_.front());
  q_.pop_front();
  lk.unlock();

  // Model the in-flight delay outside the lock so senders are not blocked.
  std::this_thread::sleep_until(m.deliver_at);
  return std::move(m.payload);
}

std::optional<byte_buffer> net_channel::recv() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return !q_.empty() || writers_ == 0; });
  if (q_.empty()) return std::nullopt;
  return take_front(lk);
}

std::optional<byte_buffer> net_channel::recv_for(double timeout_s) {
  // A NaN timeout is a caller bug (comparisons below would silently treat
  // it as "never wait"); a negative or zero one degrades to an immediate
  // poll of already-deliverable messages.
  util::expects(!std::isnan(timeout_s), "net_channel::recv_for: NaN timeout");
  if (timeout_s < 0.0) timeout_s = 0.0;
  const auto deadline = clock::now() + to_duration(timeout_s);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (!q_.empty()) {
      // Delivery times are monotone in send order (one link), so if the
      // head is not deliverable by the deadline, nothing behind it is.
      if (q_.front().deliver_at > deadline) return std::nullopt;
      return take_front(lk);
    }
    if (writers_ == 0) return std::nullopt;
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
      if (!q_.empty() && q_.front().deliver_at <= deadline)
        return take_front(lk);
      return std::nullopt;
    }
  }
}

bool net_channel::drained() const {
  std::lock_guard<std::mutex> lk(mu_);
  return writers_ == 0 && q_.empty();
}

std::uint64_t net_channel::messages_sent() const {
  std::lock_guard<std::mutex> lk(mu_);
  return messages_;
}

std::uint64_t net_channel::bytes_sent() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bytes_;
}

std::uint64_t net_channel::messages_dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_messages_;
}

std::uint64_t net_channel::bytes_dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_bytes_;
}

std::uint64_t net_channel::messages_duplicated() const {
  std::lock_guard<std::mutex> lk(mu_);
  return duplicated_messages_;
}

}  // namespace dist
