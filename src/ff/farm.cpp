#include "ff/farm.hpp"

#include "util/check.hpp"

namespace ff {

namespace {

/// Default emitter/collector: forward every token downstream unchanged.
class forwarder final : public node {
 public:
  outcome svc(token t) override {
    send_out(std::move(t));
    return outcome::more;
  }
};

}  // namespace

farm::farm(std::vector<std::unique_ptr<node>> workers) : workers_(std::move(workers)) {
  util::expects(!workers_.empty(), "farm needs at least one worker");
  for (const auto& w : workers_) util::expects(w != nullptr, "null farm worker");
}

farm& farm::set_emitter(std::unique_ptr<node> e) {
  emitter_ = std::move(e);
  return *this;
}

farm& farm::set_collector(std::unique_ptr<node> c) {
  collector_ = std::move(c);
  has_collector_ = true;
  return *this;
}

farm& farm::remove_collector() noexcept {
  collector_.reset();
  has_collector_ = false;
  return *this;
}

farm& farm::set_dispatch(out_policy p) noexcept {
  dispatch_ = p;
  return *this;
}

farm& farm::enable_feedback(feedback_from src) noexcept {
  feedback_ = src;
  return *this;
}

ports farm::materialize(network& net) {
  node* emitter = net.add(emitter_ ? std::move(emitter_)
                                   : std::make_unique<forwarder>());
  emitter->set_name(emitter->name() == "node" ? "farm-emitter" : emitter->name());
  emitter->set_out_policy(dispatch_);

  std::vector<node*> workers;
  workers.reserve(workers_.size());
  for (auto& w : workers_) workers.push_back(net.add(std::move(w)));
  workers_.clear();

  for (node* w : workers) net.connect(emitter, w, worker_capacity);

  node* collector = nullptr;
  if (has_collector_) {
    collector = net.add(collector_ ? std::move(collector_)
                                   : std::make_unique<forwarder>());
    collector->set_name(collector->name() == "node" ? "farm-collector"
                                                    : collector->name());
    for (node* w : workers) net.connect(w, collector, default_channel_capacity);
  }

  switch (feedback_) {
    case feedback_from::none:
      break;
    case feedback_from::workers:
      for (node* w : workers)
        net.connect(w, emitter, /*capacity=*/0, edge_kind::feedback);
      break;
    case feedback_from::collector:
      util::expects(collector != nullptr,
                    "collector feedback requires a collector");
      net.connect(collector, emitter, /*capacity=*/0, edge_kind::feedback);
      break;
  }

  ports p;
  p.in = {emitter};
  if (collector != nullptr) {
    p.out = {collector};
  } else {
    p.out = workers;
  }
  return p;
}

void farm::run_and_wait() {
  network net;
  materialize(net);
  net.run_and_wait();
}

}  // namespace ff
