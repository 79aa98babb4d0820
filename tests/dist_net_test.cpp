// Additional distributed-runtime coverage beyond the seed suite:
// bandwidth throttling timing, empty-buffer reads, degenerate zero-length
// containers on the wire, the versioned-frame schema header, and the
// compiled-model codec (ship the model once per run; reject a frame that
// names an undeclared id or oversizes a multiset).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cwcsim.hpp"
#include "dist/dist.hpp"
#include "models/models.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace {

TEST(NetChannelTiming, BandwidthThrottlesLargeMessages) {
  dist::net_params p;
  p.bytes_per_s = 1e6;  // 1 MB/s: a 100 kB message takes >= 0.1 s
  dist::net_channel ch(p);
  ch.add_writer();

  util::stopwatch sw;
  ch.send(dist::byte_buffer(100 * 1000, std::byte{0xAB}));
  auto m = ch.recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size(), 100u * 1000u);
  EXPECT_GE(sw.elapsed_s(), 0.09);
  ch.close_writer();
  EXPECT_EQ(ch.bytes_sent(), 100u * 1000u);
}

TEST(NetChannelTiming, SmallMessageNotThrottled) {
  dist::net_params p;
  p.bytes_per_s = 100e6;
  dist::net_channel ch(p);
  ch.add_writer();
  util::stopwatch sw;
  ch.send({std::byte{1}});
  ASSERT_TRUE(ch.recv().has_value());
  // 1 byte at 100 MB/s models as ~10 ns; the bound is deliberately loose so
  // a loaded CI runner cannot flake it.
  EXPECT_LT(sw.elapsed_s(), 0.5);
  ch.close_writer();
}

TEST(NetChannelTiming, BackToBackMessagesQueueOnTheLink) {
  dist::net_params p;
  p.bytes_per_s = 1e6;
  dist::net_channel ch(p);
  ch.add_writer();
  // Two 50 kB messages serialise back to back: the second is only
  // delivered once the link has carried both (>= 0.1 s total).
  ch.send(dist::byte_buffer(50 * 1000, std::byte{1}));
  ch.send(dist::byte_buffer(50 * 1000, std::byte{2}));
  ch.close_writer();
  util::stopwatch sw;
  ASSERT_TRUE(ch.recv().has_value());
  ASSERT_TRUE(ch.recv().has_value());
  EXPECT_GE(sw.elapsed_s(), 0.09);
}

TEST(ArchiveEdge, EmptyBufferReads) {
  const dist::byte_buffer empty;
  dist::archive_reader r(empty);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.get<std::uint8_t>(), std::runtime_error);
  EXPECT_THROW(r.get_string(), std::runtime_error);
  EXPECT_THROW(r.get_vector<double>(), std::runtime_error);
}

TEST(ArchiveEdge, ZeroLengthVectorRoundTrip) {
  dist::archive_writer w;
  w.put_vector<double>({});
  w.put<std::uint32_t>(0xBEEF);
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  EXPECT_TRUE(r.get_vector<double>().empty());
  EXPECT_EQ(r.get<std::uint32_t>(), 0xBEEFu);
  EXPECT_TRUE(r.exhausted());
}

TEST(ArchiveEdge, TakeLeavesWriterEmpty) {
  dist::archive_writer w;
  w.put<int>(1);
  EXPECT_GT(w.size(), 0u);
  (void)w.take();
  EXPECT_EQ(w.size(), 0u);
}

TEST(ArchiveEdge, CorruptVectorLengthThrows) {
  dist::archive_writer w;
  w.put<std::uint64_t>(1u << 20);  // claims 2^20 doubles, provides none
  const auto bytes = w.take();
  dist::archive_reader r(bytes);
  EXPECT_THROW(r.get_vector<double>(), std::runtime_error);
}

// ---------------------- deadlock-proof channel plumbing -------------------

TEST(NetChannelLiveness, WriterGuardClosesOnException) {
  // Regression: a producer that throws before close_writer() used to leave
  // recv() blocked forever. writer_guard closes on unwind, so the consumer
  // drains cleanly instead of hanging.
  dist::net_channel ch;
  ch.add_writer();  // consumer-side sentinel: recv() must wait for the
                    // producer rather than seeing an empty open channel
  std::thread producer([&] {
    try {
      dist::writer_guard guard(ch);
      ch.send({std::byte{1}});
      throw std::runtime_error("host died");
    } catch (const std::runtime_error&) {
    }
  });
  EXPECT_TRUE(ch.recv().has_value());
  producer.join();
  ch.close_writer();  // without the guard, the producer's writer slot
                      // would still be open here and recv() would hang
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(NetChannelLiveness, WriterGuardEarlyCloseIsIdempotent) {
  dist::net_channel ch;
  {
    dist::writer_guard guard(ch);
    guard.close();  // destructor must not close a second time
  }
  EXPECT_TRUE(ch.drained());
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(NetChannelLiveness, RecvForTimesOutOnSilentWriter) {
  dist::net_channel ch;
  ch.add_writer();  // never sends, never closes: a crashed host
  util::stopwatch sw;
  EXPECT_FALSE(ch.recv_for(0.05).has_value());
  EXPECT_GE(sw.elapsed_s(), 0.04);
  EXPECT_FALSE(ch.drained());  // timeout, not closure

  ch.close_writer();
  EXPECT_FALSE(ch.recv_for(0.05).has_value());
  EXPECT_TRUE(ch.drained());  // now it really is over
}

TEST(NetChannelLiveness, RecvForDeliversPendingMessage) {
  dist::net_channel ch;
  ch.add_writer();
  dist::archive_writer w;
  w.put<int>(99);
  ch.send(w.take());
  const auto m = ch.recv_for(1.0);
  ASSERT_TRUE(m.has_value());
  dist::archive_reader r(*m);
  EXPECT_EQ(r.get<int>(), 99);
  ch.close_writer();
}

// --------------------------- seeded message loss --------------------------

TEST(NetChannelLoss, SeededDropIsDeterministic) {
  dist::net_params p;
  p.drop_prob = 0.3;
  p.drop_seed = 1234;

  const auto run = [&p] {
    dist::net_channel ch(p);
    ch.add_writer();
    for (int i = 0; i < 200; ++i) {
      dist::archive_writer w;
      w.put<int>(i);
      ch.send(w.take());
    }
    ch.close_writer();
    std::vector<int> got;
    while (auto m = ch.recv()) {
      dist::archive_reader r(*m);
      got.push_back(r.get<int>());
    }
    return std::make_pair(got, ch.messages_dropped());
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);  // identical survivors, identical order
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);  // 200 draws at p=0.3 always lose some
  EXPECT_EQ(a.first.size() + a.second, 200u);  // every message accounted for
}

TEST(NetChannelLoss, DifferentSeedsDropDifferently) {
  const auto survivors = [](std::uint64_t seed) {
    dist::net_params p;
    p.drop_prob = 0.5;
    p.drop_seed = seed;
    dist::net_channel ch(p);
    ch.add_writer();
    for (int i = 0; i < 64; ++i) {
      dist::archive_writer w;
      w.put<int>(i);
      ch.send(w.take());
    }
    ch.close_writer();
    std::vector<int> got;
    while (auto m = ch.recv()) {
      dist::archive_reader r(*m);
      got.push_back(r.get<int>());
    }
    return got;
  };
  EXPECT_NE(survivors(1), survivors(2));
}

TEST(NetChannelLoss, ZeroDropProbNeverDraws) {
  // The default drop_prob = 0.0 takes the no-loss fast path: nothing is
  // drawn from the rng stream and every message is delivered, keeping
  // lossless runs bit-exact with pre-loss-model builds.
  dist::net_channel ch(dist::net_params{});
  ch.add_writer();
  for (int i = 0; i < 100; ++i) ch.send({std::byte{1}});
  ch.close_writer();
  int got = 0;
  while (ch.recv().has_value()) ++got;
  EXPECT_EQ(got, 100);
  EXPECT_EQ(ch.messages_dropped(), 0u);
  EXPECT_EQ(ch.bytes_dropped(), 0u);
}

// ------------------------- schema-versioned frames ------------------------

TEST(ArchiveSchema, RegistryIsTheSingleSourceOfVersions) {
  // Every frame family aliases the one bump point in dist/schema.hpp. If a
  // family ever diverges without updating the registry (a magic number at
  // an encode site), this test is the tripwire.
  EXPECT_EQ(dist::archive_schema_version, dist::wire_schema_version);
  EXPECT_EQ(dist::model_frame_version, dist::wire_schema_version);
  EXPECT_EQ(dist::checkpoint_frame_version, dist::wire_schema_version);
  EXPECT_EQ(dist::svc_frame_version, dist::wire_schema_version);

  // And the bytes actually emitted agree with the registry: the framed
  // archive header and the model frame both lead with the version byte.
  dist::archive_writer w;
  dist::put_schema_header(w);
  const auto header = w.take();
  ASSERT_FALSE(header.empty());
  EXPECT_EQ(std::to_integer<std::uint8_t>(header[0]),
            dist::archive_schema_version);

  const auto net = models::make_birth_death({});
  const auto frame =
      dist::encode_model(cwcsim::model_ref{nullptr, &net, nullptr});
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(std::to_integer<std::uint8_t>(frame[0]),
            dist::model_frame_version);
}

TEST(ArchiveSchema, HeaderRoundTrips) {
  dist::archive_writer w;
  dist::put_schema_header(w);
  w.put<std::uint32_t>(0xF00D);
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  EXPECT_NO_THROW(dist::check_schema_header(r));
  EXPECT_EQ(r.get<std::uint32_t>(), 0xF00Du);
}

TEST(ArchiveSchema, MismatchThrowsTypedError) {
  dist::archive_writer w;
  w.put<std::uint8_t>(dist::archive_schema_version + 1);  // a future schema
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  try {
    dist::check_schema_header(r);
    FAIL() << "expected schema_mismatch_error";
  } catch (const dist::schema_mismatch_error& e) {
    EXPECT_EQ(e.expected(), dist::archive_schema_version);
    EXPECT_EQ(e.found(), dist::archive_schema_version + 1);
    EXPECT_NE(std::string(e.what()).find("schema mismatch"),
              std::string::npos);
  }
  // And it stays catchable as the generic archive error.
  dist::archive_reader r2(bytes);
  EXPECT_THROW(dist::check_schema_header(r2), std::runtime_error);
}

// ----------------------- elastic control-plane frames ---------------------

TEST(WireElastic, WorkRequestAndGrantRoundTrip) {
  dist::archive_writer w;
  dist::write_work_request(w, dist::work_request{3, 7});
  dist::write_work_grant(w, dist::work_grant{17, 123456789012ull, 32, 42});
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  const auto rq = dist::read_work_request(r);
  EXPECT_EQ(rq.host, 3u);
  EXPECT_EQ(rq.worker, 7u);
  const auto g = dist::read_work_grant(r);
  EXPECT_EQ(g.block, 17u);
  EXPECT_EQ(g.first_trajectory, 123456789012ull);
  EXPECT_EQ(g.lanes, 32u);
  EXPECT_EQ(g.quantum, 42u);
  EXPECT_TRUE(r.exhausted());
}

TEST(WireElastic, QuantumResultRoundTrip) {
  dist::quantum_result q;
  q.host = 2;
  q.trajectory_id = 11;
  q.quantum_index = 4;
  q.time = 7.25;
  q.steps = 98765;
  q.finished = true;
  cwc::trajectory_sample s;
  s.time = 7.0;
  s.values = {1.0, 2.0, 3.0};
  q.samples.push_back(s);

  const auto back = dist::decode_quantum_result(dist::encode_quantum_result(q));
  EXPECT_EQ(back.host, 2u);
  EXPECT_EQ(back.trajectory_id, 11u);
  EXPECT_EQ(back.quantum_index, 4u);
  EXPECT_EQ(back.time, 7.25);
  EXPECT_EQ(back.steps, 98765u);
  EXPECT_TRUE(back.finished);
  ASSERT_EQ(back.samples.size(), 1u);
  EXPECT_EQ(back.samples[0].time, 7.0);
  EXPECT_EQ(back.samples[0].values, s.values);
}

TEST(WireElastic, QuantumResultIsSchemaVersioned) {
  // Checkpoint frames are the resume format — a frame from a foreign build
  // must be rejected, not misparsed.
  auto frame = dist::encode_quantum_result(dist::quantum_result{});
  frame[0] = std::byte{0x7F};
  EXPECT_THROW(dist::decode_quantum_result(frame),
               dist::schema_mismatch_error);
  // Nor is a frame from the previous layout.
  frame[0] = static_cast<std::byte>(dist::checkpoint_frame_version - 1);
  EXPECT_THROW(dist::decode_quantum_result(frame),
               dist::schema_mismatch_error);
}

dist::block_result sample_block() {
  dist::block_result b;
  b.host = 1;
  b.block = 5;
  b.quantum_index = 3;
  for (std::uint64_t t : {40u, 41u, 43u}) {
    dist::quantum_result q;
    q.trajectory_id = t;
    q.time = 2.0 + static_cast<double>(t);
    q.steps = 1000 + t;
    q.finished = t != 41;
    q.samples.resize(t == 43 ? 0 : 2);
    for (auto& s : q.samples) {
      s.time = q.time;
      s.values = {1.5, static_cast<double>(t)};
    }
    b.lanes.push_back(q);
  }
  return b;
}

/// The frame as a host writes it: the header, then one lane at a time.
dist::byte_buffer encode_block(const dist::block_result& b) {
  dist::archive_writer w;
  dist::begin_block_result(w, b.host, b.block, b.quantum_index,
                           b.lanes.size());
  for (const auto& q : b.lanes)
    dist::put_lane_result(w, q.trajectory_id, q.time, q.steps, q.finished,
                          q.samples);
  return w.take();
}

dist::block_result decode_block(const dist::byte_buffer& frame) {
  dist::archive_reader r(frame);
  auto b = dist::read_block_result(r);
  EXPECT_TRUE(r.exhausted());
  return b;
}

TEST(WireElastic, BlockResultRoundTrip) {
  const auto b = sample_block();
  const auto back = decode_block(encode_block(b));
  EXPECT_EQ(back.host, 1u);
  EXPECT_EQ(back.block, 5u);
  EXPECT_EQ(back.quantum_index, 3u);
  ASSERT_EQ(back.lanes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& x = back.lanes[i];
    const auto& y = b.lanes[i];
    EXPECT_EQ(x.host, 1u);  // every lane carries the frame's host ...
    EXPECT_EQ(x.quantum_index, 3u);  // ... and quantum
    EXPECT_EQ(x.trajectory_id, y.trajectory_id);
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.steps, y.steps);
    EXPECT_EQ(x.finished, y.finished);
    ASSERT_EQ(x.samples.size(), y.samples.size());
    for (std::size_t k = 0; k < x.samples.size(); ++k) {
      EXPECT_EQ(x.samples[k].time, y.samples[k].time);
      EXPECT_EQ(x.samples[k].values, y.samples[k].values);
    }
  }
  EXPECT_FALSE(back.finished());  // lane 41 is still running
  auto done = b;
  done.lanes.erase(done.lanes.begin() + 1);
  EXPECT_TRUE(done.finished());
}

TEST(WireElastic, BlockResultRejectsV4Frame) {
  auto frame = encode_block(sample_block());
  ASSERT_EQ(static_cast<std::uint8_t>(frame[0]), dist::checkpoint_frame_version);
  frame[0] = std::byte{4};  // the per-trajectory checkpoint layout
  EXPECT_THROW(decode_block(frame), dist::schema_mismatch_error);
}

// A frame's element counts are untrusted: a count the rest of the frame
// cannot hold must surface as the std::runtime_error archive.hpp promises
// for a corrupt frame, before anything is allocated for it (not as
// std::bad_alloc or std::length_error from a reserve()).
TEST(WireBounds, HugeDecodedCountsThrowRuntimeError) {
  for (const std::uint64_t claim : {std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 62}) {
    SCOPED_TRACE(claim);
    {  // quantum_result: samples
      dist::archive_writer w;
      dist::put_schema_header(w);
      w.put<std::uint32_t>(0);   // host
      w.put<std::uint64_t>(1);   // trajectory_id
      w.put<std::uint64_t>(0);   // quantum_index
      w.put<double>(1.0);        // time
      w.put<std::uint64_t>(10);  // steps
      w.put<std::uint8_t>(0);    // finished
      w.put<std::uint64_t>(claim);
      w.put<double>(0.0);
      EXPECT_THROW(dist::decode_quantum_result(w.take()), std::runtime_error);
    }
    auto decode_window = [](const dist::byte_buffer& bytes) {
      dist::archive_reader r(bytes);
      return dist::read_window_summary(r);
    };
    {  // window_summary: cuts
      dist::archive_writer w;
      w.put<std::uint64_t>(0);  // first_sample
      w.put<std::uint64_t>(claim);
      w.put<double>(0.0);
      EXPECT_THROW(decode_window(w.take()), std::runtime_error);
    }
    {  // window_summary: moments of one cut
      dist::archive_writer w;
      w.put<std::uint64_t>(0);  // first_sample
      w.put<std::uint64_t>(1);  // one cut ...
      w.put<std::uint64_t>(0);  // ... sample_index
      w.put<double>(0.0);       // ... time
      w.put<std::uint64_t>(claim);
      w.append(std::vector<std::byte>(80).data(), 80);
      EXPECT_THROW(decode_window(w.take()), std::runtime_error);
    }
    {  // window_summary: centroids of one cut
      dist::archive_writer w;
      w.put<std::uint64_t>(0);  // first_sample
      w.put<std::uint64_t>(1);  // one cut ...
      w.put<std::uint64_t>(0);  // ... sample_index
      w.put<double>(0.0);       // ... time
      w.put<std::uint64_t>(0);  // ... no moments
      w.put_vector<double>({});  // ... no medians
      w.put<std::uint64_t>(claim);
      w.append(std::vector<std::byte>(80).data(), 80);
      EXPECT_THROW(decode_window(w.take()), std::runtime_error);
    }
  }
}

// The bounds use each record's smallest encoding, so frames made only of
// minimal records (empty samples, empty cut summaries) still decode.
TEST(WireBounds, MinimalRecordsStillDecode) {
  dist::quantum_result q;
  q.samples.resize(3);  // time + empty value vector: 16 bytes each
  const auto back = dist::decode_quantum_result(dist::encode_quantum_result(q));
  EXPECT_EQ(back.samples.size(), 3u);

  cwcsim::window_summary s;
  s.first_sample = 4;
  s.cuts.resize(2);  // every count and vector empty: 68 bytes each
  dist::archive_writer w;
  dist::write_window_summary(w, s);
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 2 * sizeof(std::uint64_t) + 2 * 68u);
  dist::archive_reader r(bytes);
  const auto got = dist::read_window_summary(r);
  EXPECT_EQ(got.first_sample, 4u);
  EXPECT_EQ(got.cuts.size(), 2u);
  EXPECT_TRUE(r.exhausted());
}

// ------------------------------ model codec -------------------------------

TEST(ModelCodec, TreeModelRoundTripsBitExact) {
  const auto m = models::make_neurospora_cwc({});
  const cwcsim::model_ref ref{&m, nullptr, nullptr};
  ASSERT_TRUE(dist::wire_encodable(ref));

  const auto frame = dist::encode_model(ref);
  EXPECT_GT(frame.size(), 0u);
  const auto cm = dist::decode_model(frame);
  ASSERT_TRUE(cm->is_tree());

  // The decoded model is structurally identical...
  const cwc::model& d = *cm->tree();
  EXPECT_EQ(d.species().size(), m.species().size());
  EXPECT_EQ(d.compartment_types().size(), m.compartment_types().size());
  ASSERT_EQ(d.rules().size(), m.rules().size());
  for (std::size_t j = 0; j < m.rules().size(); ++j)
    EXPECT_EQ(d.rules()[j].name(), m.rules()[j].name());
  EXPECT_TRUE(d.initial().equals(m.initial()));
  ASSERT_EQ(d.observables().size(), m.observables().size());

  // ...and behaviourally bit-exact: same seed, same sample path.
  for (std::uint64_t id = 0; id < 2; ++id) {
    cwc::engine original(cwc::compiled_model::compile(m), 47, id);
    cwc::engine decoded(cm, 47, id);
    std::vector<cwc::trajectory_sample> so, sd;
    original.run_to(12.0, 0.5, so);
    decoded.run_to(12.0, 0.5, sd);
    ASSERT_EQ(so.size(), sd.size());
    for (std::size_t i = 0; i < so.size(); ++i) {
      EXPECT_EQ(so[i].time, sd[i].time);
      EXPECT_EQ(so[i].values, sd[i].values);
    }
    EXPECT_EQ(original.steps(), decoded.steps());
  }
}

TEST(ModelCodec, FlatModelRoundTripsBitExact) {
  const auto net = models::make_lotka_volterra({});
  const cwcsim::model_ref ref{nullptr, &net, nullptr};
  ASSERT_TRUE(dist::wire_encodable(ref));

  const auto cm = dist::decode_model(dist::encode_model(ref));
  ASSERT_FALSE(cm->is_tree());
  ASSERT_EQ(cm->flat()->reactions().size(), net.reactions().size());

  cwc::flat_engine original(cwc::compiled_model::compile(net), 5, 1);
  cwc::flat_engine decoded(cm, 5, 1);
  std::vector<cwc::trajectory_sample> so, sd;
  original.run_to(8.0, 0.25, so);
  decoded.run_to(8.0, 0.25, sd);
  ASSERT_EQ(so.size(), sd.size());
  for (std::size_t i = 0; i < so.size(); ++i)
    EXPECT_EQ(so[i].values, sd[i].values);
}

TEST(ModelCodec, CustomRateLawIsNotEncodable) {
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  net.set_initial(a, 5);
  net.add_reaction("opaque", {{a, 1}}, {},
                   cwc::rate_law::custom([](const cwc::rate_ctx& ctx) {
                     return ctx.combinations;
                   }));
  const cwcsim::model_ref ref{nullptr, &net, nullptr};
  EXPECT_FALSE(dist::wire_encodable(ref));
  EXPECT_THROW(dist::encode_model(ref), util::precondition_error);
}

TEST(ModelCodec, DecodeRejectsWrongSchemaVersion) {
  const auto net = models::make_birth_death({});
  auto frame = dist::encode_model(cwcsim::model_ref{nullptr, &net, nullptr});
  frame[0] = std::byte{0x7F};  // stamp a foreign schema version
  EXPECT_THROW(dist::decode_model(frame), dist::schema_mismatch_error);
}

TEST(ModelCodec, DecodeRejectsTruncatedFrame) {
  const auto net = models::make_birth_death({});
  auto frame = dist::encode_model(cwcsim::model_ref{nullptr, &net, nullptr});
  frame.resize(frame.size() / 2);
  EXPECT_THROW(dist::decode_model(frame), std::runtime_error);
}

/// A one-species tree model: "10*A" and observable A.
cwc::model one_species_model() {
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "10*A"));
  m.add_observable("A", 0);
  return m;
}

// A model naming a species or compartment type it never declared must not
// reach the engines, which index dense tables by those ids: compile
// rejects it naming the id, and decode_model, the run server's model-cache
// path, rejects its frame.
TEST(ModelCodec, UndeclaredIdsAreRejectedByCompileAndDecode) {
  const auto expect_rejected = [](const char* id, const cwc::model& m) {
    SCOPED_TRACE(id);
    try {
      cwc::compiled_model::compile(m);
      ADD_FAILURE() << "compiled";
    } catch (const util::precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(id), std::string::npos) << e.what();
    }
    EXPECT_ANY_THROW(
        dist::decode_model(dist::encode_model({&m, nullptr, nullptr})));
  };
  const auto rule = [](cwc::comp_type_id context = cwc::top_compartment) {
    return cwc::rule("r", context, cwc::rate_law::mass_action(1.0));
  };
  cwc::comp_pattern child;
  child.type = 5;
  cwc::comp_product created;
  created.type = 6;
  const std::pair<const char*, cwc::rule> bad_rules[] = {
      {"species 9", rule().consume(9)},
      {"species 8", rule().produce(8)},
      {"species 4", cwc::rule("mm", cwc::top_compartment,
                              cwc::rate_law::michaelis_menten(1.0, 1.0, 4))},
      {"compartment type 3", rule(3)},
      {"compartment type 5", rule().match_child(child)},
      {"compartment type 6", rule().create_compartment(created)}};
  for (const auto& [id, r] : bad_rules) {
    auto m = one_species_model();
    m.add_rule(r);
    expect_rejected(id, m);
  }
  auto m = one_species_model();
  auto t = cwc::parse_term(m, "10*A");
  t->add_child(std::make_unique<cwc::compartment>(7));
  m.set_initial(std::move(t));
  expect_rejected("compartment type 7", m);
  m = one_species_model();
  m.add_observable("ghost", 5);
  expect_rejected("species 5", m);
  m = one_species_model();
  m.add_observable("scoped", 0, 2);
  expect_rejected("compartment type 2", m);
}

// A frame's multiset universe sizes a dense row: the decoder bounds it by
// the frame's species table before it allocates.
TEST(ModelCodec, DecodeRejectsMultisetUniversePastSpeciesTable) {
  constexpr std::uint64_t kUniverse = 0x5A5A;
  auto m = one_species_model();
  cwc::multiset content(kUniverse);
  content.set(0, 10);
  m.set_initial(std::make_unique<cwc::compartment>(
      cwc::top_compartment, cwc::multiset{}, std::move(content)));
  auto frame = dist::encode_model({&m, nullptr, nullptr});
  EXPECT_THROW(dist::decode_model(frame), std::runtime_error);

  // The same frame claiming 2^40 entries throws before allocating 8 TiB.
  const auto at = std::search(frame.begin(), frame.end(),
                              reinterpret_cast<const std::byte*>(&kUniverse),
                              reinterpret_cast<const std::byte*>(&kUniverse) + 8);
  ASSERT_NE(at, frame.end());
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(&*at, &huge, sizeof huge);
  EXPECT_THROW(dist::decode_model(frame), std::runtime_error);
}

/// A flat-model frame over the one-species table {A}, written field by
/// field in encode_model's layout after the encoder's header and table: a
/// reaction A -> 0 under Michaelis-Menten kinetics driven by `mm_driver`
/// (no reaction when empty), then the initial counts. These are the frames
/// a reaction_network refuses to build.
dist::byte_buffer one_species_flat_frame(
    std::optional<cwc::species_id> mm_driver,
    const std::vector<std::uint64_t>& initial) {
  cwc::reaction_network net;
  net.declare_species("A");
  auto frame = dist::encode_model({nullptr, &net, nullptr});
  // Drop the empty reaction list and the empty initial-count vector.
  frame.resize(frame.size() - 2 * sizeof(std::uint64_t));
  dist::archive_writer w;
  w.put<std::uint64_t>(mm_driver.has_value() ? 1 : 0);
  if (mm_driver.has_value()) {
    w.put_string("mm");
    w.put<std::uint8_t>(
        static_cast<std::uint8_t>(cwc::rate_law::kind::michaelis_menten));
    w.put<double>(1.0);  // Vmax
    w.put<double>(2.0);  // Km
    w.put<cwc::species_id>(*mm_driver);
    w.put<std::uint8_t>(0);  // driver in the host
    w.put_vector(std::vector<cwc::stoich>{{0, 1}});
    w.put_vector(std::vector<cwc::stoich>{});
  }
  w.put_vector(initial);
  const dist::byte_buffer tail = w.take();
  frame.insert(frame.end(), tail.begin(), tail.end());
  return frame;
}

// The flat counterpart of UndeclaredIdsAreRejectedByCompileAndDecode: an
// initial count or a rate-law driver past the frame's species table.
TEST(ModelCodec, DecodeRejectsUndeclaredFlatIds) {
  // Well-formed controls decode, so each rejection below is the id's.
  EXPECT_NO_THROW(dist::decode_model(one_species_flat_frame(0, {10})));
  EXPECT_NO_THROW(
      dist::decode_model(one_species_flat_frame(std::nullopt, {10})));

  const auto expect_rejected = [](const char* id,
                                  const dist::byte_buffer& frame) {
    SCOPED_TRACE(id);
    try {
      dist::decode_model(frame);
      ADD_FAILURE() << "decoded";
    } catch (const util::precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(id), std::string::npos) << e.what();
    }
  };
  expect_rejected("species 1", one_species_flat_frame(std::nullopt, {10, 7}));
  expect_rejected("species 3", one_species_flat_frame(3, {10}));
}

/// `frame` with the first occurrence of the double `from` replaced by `to`.
void patch_double(dist::byte_buffer& frame, double from, double to) {
  const auto* f = reinterpret_cast<const std::byte*>(&from);
  const auto at = std::search(frame.begin(), frame.end(), f, f + sizeof from);
  ASSERT_NE(at, frame.end());
  std::memcpy(&*at, &to, sizeof to);
}

// The decoder builds every law through its factory, so a frame carrying an
// infinite rate constant or a Hill K^n that is not a positive finite double
// is rejected before any engine could run it.
TEST(ModelCodec, DecodeRejectsNonFiniteRateParameters) {
  cwc::reaction_network net;
  const auto x = net.declare_species("X");
  net.add_reaction("birth", {}, {{x, 1}}, cwc::rate_law::mass_action(1.5));
  net.add_reaction("make", {}, {{x, 1}},
                   cwc::rate_law::hill_repression(30.0, 10.25, 2.0, x));
  net.add_reaction("decay", {{x, 1}}, {}, cwc::rate_law::mass_action(1.0));
  const auto frame = dist::encode_model({nullptr, &net, nullptr});
  EXPECT_NO_THROW(dist::decode_model(frame));

  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> patches[] = {
      {1.5, inf},        // mass_action(+inf)
      {30.0, inf},       // Hill v = +inf
      {10.25, 1e200},    // K^n overflows to +inf
      {10.25, 1e-200}};  // K^n underflows to 0
  for (const auto& [from, to] : patches) {
    SCOPED_TRACE(::testing::Message() << from << " -> " << to);
    auto patched = frame;
    patch_double(patched, from, to);
    EXPECT_THROW(dist::decode_model(patched), util::precondition_error);
  }

  // A tree frame goes through the same factories.
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "10*A"));
  m.add_rule(cwc::parse_rule(m, "decay", "top: A -> 0 @ 1.5"));
  m.add_observable("A", 0);
  auto tree = dist::encode_model({&m, nullptr, nullptr});
  EXPECT_NO_THROW(dist::decode_model(tree));
  patch_double(tree, 1.5, inf);
  EXPECT_THROW(dist::decode_model(tree), util::precondition_error);
}

TEST(DistributedModelShipping, ShipsOneFramePerHostPerRun) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 6;
  cfg.t_end = 4.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 2.0;
  cfg.kmeans_k = 0;
  cfg.window_size = 3;
  cfg.window_slide = 3;

  const cwcsim::distributed cluster{3, 2};
  const auto dr = cwcsim::run(m, cfg, cluster);

  const auto frame =
      dist::encode_model(cwcsim::model_ref{&m, nullptr, nullptr});
  ASSERT_TRUE(dr.network.has_value());
  EXPECT_EQ(dr.network->model_bytes,
            static_cast<double>(frame.size()) * cluster.num_hosts);
  // Model traffic is accounted separately from the result stream.
  EXPECT_GT(dr.network->bytes, 0.0);
  EXPECT_EQ(dr.result.completions.size(), cfg.num_trajectories);
}

TEST(DistributedConfig, RejectsNonPositiveQuantum) {
  const auto net = models::make_birth_death({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 4;
  cfg.quantum = 0.0;  // would never advance simulated time
  try {
    (void)cwcsim::run_builder()
        .model(net)
        .config(cfg)
        .backend(cwcsim::distributed{})
        .open();
    FAIL() << "expected config_error";
  } catch (const cwcsim::config_error& e) {
    EXPECT_EQ(e.field(), "quantum");
  }
}

// --------------------- timeout guards (regression) ------------------------

TEST(NetChannelGuards, RecvForRejectsNaNTimeout) {
  dist::net_channel ch;
  ch.add_writer();
  EXPECT_THROW(ch.recv_for(std::numeric_limits<double>::quiet_NaN()),
               util::precondition_error);
  ch.close_writer();
}

TEST(NetChannelGuards, RecvForClampsNonPositiveTimeoutToImmediatePoll) {
  dist::net_channel ch;
  ch.add_writer();
  ch.send({std::byte{7}});
  // A zero-latency pending message is deliverable right now: a negative
  // or zero timeout degrades to an immediate poll, not an error and not
  // an infinite wait.
  util::stopwatch sw;
  EXPECT_TRUE(ch.recv_for(-3.5).has_value());
  EXPECT_FALSE(ch.recv_for(0.0).has_value());
  EXPECT_LT(sw.elapsed_s(), 0.5);
  ch.close_writer();
}

// ------------------- seeded duplication and delay-jitter ------------------

TEST(NetChannelFaults, SeededDuplicationDeliversAndCountsCopies) {
  dist::net_params p;
  p.dup_prob = 1.0 - 1e-12;  // every send retransmits (prob must be < 1)
  dist::net_channel ch(p);
  ch.add_writer();
  for (int i = 0; i < 5; ++i) ch.send({std::byte{static_cast<unsigned char>(i)}});
  ch.close_writer();

  std::size_t delivered = 0;
  while (ch.recv().has_value()) ++delivered;
  EXPECT_EQ(delivered, 10u);  // each message + its duplicate
  EXPECT_EQ(ch.messages_duplicated(), 5u);
  EXPECT_EQ(ch.messages_sent(), 10u);  // copies are delivered traffic
}

TEST(NetChannelFaults, DuplicationIsSeedDeterministic) {
  const auto count_dups = [](std::uint64_t seed) {
    dist::net_params p;
    p.dup_prob = 0.5;
    p.drop_seed = seed;
    dist::net_channel ch(p);
    ch.add_writer();
    for (int i = 0; i < 64; ++i) ch.send({std::byte{1}});
    ch.close_writer();
    return ch.messages_duplicated();
  };
  EXPECT_EQ(count_dups(42), count_dups(42));
  EXPECT_NE(count_dups(42), count_dups(43));  // independent streams
}

TEST(NetChannelFaults, DelayJitterPreservesFifoOrder) {
  dist::net_params p;
  p.jitter_s = 0.005;
  dist::net_channel ch(p);
  ch.add_writer();
  for (int i = 0; i < 50; ++i)
    ch.send({std::byte{static_cast<unsigned char>(i)}});
  ch.close_writer();
  // Jitter delays delivery but must never reorder: delivery times are
  // clamped monotone in send order (a congested link, not a reordering
  // one), so the svc stream protocol can rely on FIFO transport.
  for (int i = 0; i < 50; ++i) {
    const auto m = ch.recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ((*m)[0], std::byte{static_cast<unsigned char>(i)}) << i;
  }
  EXPECT_FALSE(ch.recv().has_value());
}

}  // namespace
