// Tests for the ff core patterns: pipeline composition, farms (dispatch
// policies, collectors), feedback loops with emitter-side termination, and
// error propagation out of node threads.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "ff/ff.hpp"

namespace {

/// Source emitting ints [0, n).
class int_source final : public ff::node {
 public:
  explicit int_source(int n) : n_(n) {}
  ff::outcome svc(ff::token) override {
    if (i_ >= n_) return ff::outcome::end;
    send_out(ff::token::of(i_++));
    return i_ < n_ ? ff::outcome::more : ff::outcome::end;
  }

 private:
  int n_;
  int i_ = 0;
};

/// Sink collecting ints (thread-safe so farms without collectors can share).
class int_sink final : public ff::node {
 public:
  explicit int_sink(std::vector<int>* out) : out_(out) {}
  ff::outcome svc(ff::token t) override {
    std::lock_guard lk(mu_);
    out_->push_back(t.as<int>());
    return ff::outcome::more;
  }

 private:
  std::vector<int>* out_;
  std::mutex mu_;
};

TEST(Pipeline, TwoStagePreservesOrderAndContent) {
  std::vector<int> got;
  ff::pipeline p;
  p.add_stage(std::make_unique<int_source>(100));
  p.add_stage(std::make_unique<int_sink>(&got));
  p.run_and_wait();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
}

TEST(Pipeline, MiddleStageTransforms) {
  std::vector<int> got;
  ff::pipeline p;
  p.add_stage(std::make_unique<int_source>(50));
  p.add_stage(ff::make_node([](auto& self, ff::token t) {
    self.send_out(ff::token::of(t.template as<int>() * 2));
    return ff::outcome::more;
  }));
  p.add_stage(std::make_unique<int_sink>(&got));
  p.run_and_wait();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[i], 2 * i);
}

TEST(Pipeline, EmptyPipelineRejected) {
  ff::pipeline p;
  ff::network net;
  EXPECT_THROW(p.materialize(net), util::precondition_error);
}

class square_worker final : public ff::node {
 public:
  ff::outcome svc(ff::token t) override {
    send_out(ff::token::of(t.as<int>() * t.as<int>()));
    return ff::outcome::more;
  }
};

class farm_param_test
    : public ::testing::TestWithParam<std::tuple<unsigned, ff::out_policy>> {};

TEST_P(farm_param_test, AllItemsProcessedExactlyOnce) {
  const auto [workers, policy] = GetParam();
  const int n = 200;
  std::vector<int> got;

  ff::pipeline p;
  p.add_stage(std::make_unique<int_source>(n));
  std::vector<std::unique_ptr<ff::node>> ws;
  for (unsigned i = 0; i < workers; ++i)
    ws.push_back(std::make_unique<square_worker>());
  auto f = std::make_unique<ff::farm>(std::move(ws));
  f->set_dispatch(policy);
  p.add_stage(std::move(f));
  p.add_stage(std::make_unique<int_sink>(&got));
  p.run_and_wait();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  std::multiset<int> expect;
  for (int i = 0; i < n; ++i) expect.insert(i * i);
  std::multiset<int> actual(got.begin(), got.end());
  EXPECT_EQ(actual, expect);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndPolicies, farm_param_test,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::Values(ff::out_policy::round_robin,
                                         ff::out_policy::on_demand)));

TEST(Farm, NoCollectorMergesAtNextStage) {
  const int n = 120;
  std::vector<int> got;
  ff::pipeline p;
  p.add_stage(std::make_unique<int_source>(n));
  std::vector<std::unique_ptr<ff::node>> ws;
  for (int i = 0; i < 3; ++i) ws.push_back(std::make_unique<square_worker>());
  auto f = std::make_unique<ff::farm>(std::move(ws));
  f->remove_collector();
  p.add_stage(std::move(f));
  p.add_stage(std::make_unique<int_sink>(&got));
  p.run_and_wait();
  EXPECT_EQ(got.size(), static_cast<std::size_t>(n));
}

TEST(Farm, RequiresAtLeastOneWorker) {
  std::vector<std::unique_ptr<ff::node>> none;
  EXPECT_THROW(ff::farm f(std::move(none)), util::precondition_error);
}

/// Feedback test: emitter re-circulates each token `rounds` times before
/// emitting downstream (a miniature of the CWC quantum scheduler), logging
/// each (id, round) it dispatches when given a log.
class cycling_emitter final : public ff::node {
 public:
  cycling_emitter(int items, int rounds,
                  std::vector<std::pair<int, int>>* log = nullptr)
      : items_(items), rounds_(rounds), log_(log) {
    set_continue_after_eos(true);
  }
  ff::outcome svc(ff::token t) override {
    auto [id, round] = t.as<std::pair<int, int>>();
    if (round < rounds_) {
      if (log_ != nullptr) log_->emplace_back(id, round);
      send_out(ff::token::of(std::make_pair(id, round)));  // to workers
      return ff::outcome::more;
    }
    ++retired_;
    return done();
  }
  ff::outcome on_upstream_eos() override {
    upstream_done_ = true;
    return done();
  }

 private:
  ff::outcome done() const {
    return (upstream_done_ && retired_ == items_) ? ff::outcome::end
                                                  : ff::outcome::more;
  }
  int items_;
  int rounds_;
  std::vector<std::pair<int, int>>* log_;
  int retired_ = 0;
  bool upstream_done_ = false;
};

/// Worker: increments round, reports result downstream on last round and
/// always feeds the token back to the emitter.
class cycling_worker final : public ff::node {
 public:
  explicit cycling_worker(int rounds) : rounds_(rounds) {}
  ff::outcome svc(ff::token t) override {
    auto [id, round] = t.as<std::pair<int, int>>();
    ++round;
    if (round == rounds_) send_out(ff::token::of(id));
    send_feedback(ff::token::of(std::make_pair(id, round)));
    return ff::outcome::more;
  }

 private:
  int rounds_;
};

TEST(FarmFeedback, TokensCycleUntilEmitterRetiresThem) {
  const int items = 40, rounds = 5;
  std::vector<int> got;

  ff::pipeline p;
  p.add_stage(ff::make_node([items, i = 0](auto& self, ff::token) mutable {
    if (i >= items) return ff::outcome::end;
    self.send_out(ff::token::of(std::make_pair(i, 0)));
    ++i;
    return i < items ? ff::outcome::more : ff::outcome::end;
  }));
  std::vector<std::unique_ptr<ff::node>> ws;
  for (int i = 0; i < 3; ++i) ws.push_back(std::make_unique<cycling_worker>(rounds));
  auto f = std::make_unique<ff::farm>(std::move(ws));
  f->set_emitter(std::make_unique<cycling_emitter>(items, rounds))
      .enable_feedback(ff::feedback_from::workers);
  p.add_stage(std::move(f));
  p.add_stage(std::make_unique<int_sink>(&got));
  p.run_and_wait();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(items));
  std::set<int> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(items));
}

// The feedback farm's emitter drains its upstream before it continues any
// fed-back token, so every task starts before any continues. The worker
// holds its first token until the source has emitted all N: from then on
// fed-back tokens and fresh ones both wait at the emitter, and the first N
// dispatches must be exactly the N fresh tokens, in order.
TEST(FarmFeedback, EmitterStartsEveryTaskBeforeContinuingAny) {
  const int items = 64, rounds = 3;
  std::atomic<bool> source_done{false};
  std::vector<std::pair<int, int>> log;

  ff::pipeline p;
  p.add_stage(ff::make_node([&, i = 0](auto& self, ff::token) mutable {
    self.send_out(ff::token::of(std::make_pair(i, 0)));
    if (++i < items) return ff::outcome::more;
    source_done.store(true);
    return ff::outcome::end;
  }));
  std::vector<std::unique_ptr<ff::node>> ws;
  ws.push_back(ff::make_node([&](auto& self, ff::token t) {
    while (!source_done.load()) std::this_thread::yield();
    auto [id, round] = t.template as<std::pair<int, int>>();
    self.send_feedback(ff::token::of(std::make_pair(id, round + 1)));
    return ff::outcome::more;
  }));
  auto f = std::make_unique<ff::farm>(std::move(ws));
  f->set_emitter(std::make_unique<cycling_emitter>(items, rounds, &log))
      .enable_feedback(ff::feedback_from::workers);
  p.add_stage(std::move(f));
  p.run_and_wait();

  ASSERT_EQ(log.size(), static_cast<std::size_t>(items * rounds));
  for (int i = 0; i < items; ++i)
    EXPECT_EQ(log[i], std::make_pair(i, 0)) << "dispatch " << i;
}

TEST(Network, WorkerExceptionPropagatesToWait) {
  ff::pipeline p;
  p.add_stage(std::make_unique<int_source>(10));
  p.add_stage(ff::make_node([](auto&, ff::token t) -> ff::outcome {
    if (t.template as<int>() == 5) throw std::runtime_error("boom");
    return ff::outcome::more;
  }));
  EXPECT_THROW(p.run_and_wait(), std::runtime_error);
}

TEST(Network, CannotMutateAfterRun) {
  ff::network net;
  std::vector<int> got;
  auto* a = net.emplace<int_source>(1);
  auto* b = net.emplace<int_sink>(&got);
  net.connect(a, b);
  net.run();
  EXPECT_THROW(net.add(std::make_unique<int_source>(1)), util::precondition_error);
  net.wait();
}

TEST(Network, BroadcastRejectsPayloads) {
  // Broadcast is for control tokens only; a payload must throw inside the
  // node thread and surface at wait().
  ff::network net;
  auto* src = net.add(ff::make_node([sent = false](auto& self, ff::token) mutable {
    if (sent) return ff::outcome::end;
    sent = true;
    self.send_out(ff::token::of(1));
    return ff::outcome::more;
  }));
  src->set_out_policy(ff::out_policy::broadcast);
  std::vector<int> got;
  auto* sink = net.emplace<int_sink>(&got);
  net.connect(src, sink);
  net.run();
  EXPECT_THROW(net.wait(), util::precondition_error);
}

}  // namespace
