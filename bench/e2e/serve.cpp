/// Serve workloads of bench_e2e.  Tuning jobs prepare a state dir; an
/// in-process HarlServer restarted on it on a loopback port is then driven
/// through its wire protocol with LineClient connections:
///
///   serve-read        open loop at 10,000 qps (one sender thread, two
///                     receiver threads, two pipelined connections), then
///                     saturation over two connections 16 requests deep;
///   serve-read-write  the same open loop at 5,000 qps for as long as two
///                     tuning jobs, submitted one after the other over a
///                     third connection, run.
///
/// The query mix is seeded: 60% bert_b1 keys (answered from L1), 25%
/// bert_b16 keys (L2 transfer), 15% mobilenet_v2_b1 keys (L3 advice).  Open-
/// loop latency is timed from each request's due time.

#include <dirent.h>
#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/presets.hpp"
#include "io/record.hpp"
#include "io/record_io.hpp"
#include "sched/sketch.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/thread_pool.hpp"
#include "workloads/networks.hpp"

#include "e2e.hpp"

namespace e2e {
namespace {

using harl::LineClient;
using harl::Request;
using harl::RequestType;
using harl::Response;

constexpr const char* kHw = "xeon";
constexpr double kSloUs = 1000.0;     // a query is on time within 1 ms of due
constexpr int kRecvTimeoutMs = 10000;  // a reply later than this is a failure

// ------------------------------------------------------------------- keys

/// One query key and its request line.  `cls` is the tier the mix draws it
/// for: 0 = bert_b1 (L1), 1 = bert_b16 (L2), 2 = mobilenet_v2_b1 (L3).
struct Key {
  std::string network, task, line;
  int cls = 0;
  double weight = 1;                   // the subgraph's weight in its network
  std::vector<harl::Sketch> sketches;  // L1 keys: to rebuild served records
};

/// The 41 keys; `networks` keeps the subgraphs the sketches point into.
std::vector<Key> make_keys(std::vector<harl::Network>& networks) {
  struct Source {
    const char* base;
    std::int64_t batch;
    int cls;
  };
  const Source sources[] = {{"bert", 1, 0}, {"bert", 16, 1}, {"mobilenet_v2", 1, 2}};
  std::vector<Key> keys;
  networks.clear();
  networks.reserve(std::size(sources));
  for (const Source& src : sources) {
    const harl::Network& net = networks.emplace_back(harl::make_network(src.base, src.batch));
    for (const harl::Subgraph& g : net.subgraphs) {
      Key k;
      k.network = net.name;
      k.task = g.name();
      k.cls = src.cls;
      k.weight = g.weight();
      Request q;
      q.type = RequestType::kQuery;
      q.network = k.network;
      q.task = k.task;
      q.hw = kHw;
      k.line = harl::request_to_json(q);
      if (k.cls == 0) k.sketches = harl::generate_sketches(g);
      keys.push_back(std::move(k));
    }
  }
  return keys;
}

/// The seeded query mix: request `i` of stream `stream` asks for this key.
class Mix {
 public:
  Mix(const std::vector<Key>& keys, std::uint64_t seed) : seed_(seed) {
    for (std::size_t k = 0; k < keys.size(); ++k) by_cls_[keys[k].cls].push_back(static_cast<int>(k));
  }
  int key(std::uint64_t stream, std::uint64_t i) const {
    const std::uint64_t u = splitmix64(splitmix64(seed_ ^ (stream << 48)) + i);
    const std::uint64_t pct = u % 100;
    const int cls = pct < 60 ? 0 : pct < 85 ? 1 : 2;
    const std::vector<int>& pool = by_cls_[cls];
    return pool[(u >> 32) % pool.size()];
  }

 private:
  std::uint64_t seed_;
  std::vector<int> by_cls_[3];
};

// ---------------------------------------------------------------- checking

/// Per-thread reply checker: every reply must be ok, bert_b1 keys must be
/// answered from L1, and an L1 record must rebuild for the queried task with
/// its time equal to est_time_ms.  Remembers the last record text verified
/// per key so a repeated answer is compared, not re-parsed.
class Checker {
 public:
  explicit Checker(const std::vector<Key>& keys) : keys_(keys), verified_(keys.size()) {}

  /// Parses and checks one reply; returns its tier (0..2) or -1 on failure.
  int check(const std::string& line, int key, Response* out = nullptr) {
    Response resp;
    std::string err;
    if (!harl::response_from_json(line, &resp, &err)) return fail("unparsable reply: " + err);
    if (!resp.ok) return fail("query error: " + resp.error);
    const Key& k = keys_[static_cast<std::size_t>(key)];
    const int tier = resp.tier == "L1" ? 0 : resp.tier == "L2" ? 1 : resp.tier == "L3" ? 2 : -1;
    if (tier < 0) return fail(k.network + "/" + k.task + " answered tier " + resp.tier);
    if (k.cls == 0 && tier != 0) return fail(k.network + "/" + k.task + " not answered from L1");
    if (tier == 0 && resp.record != verified_[static_cast<std::size_t>(key)]) {
      harl::TuningRecord rec;
      if (!harl::record_from_json(resp.record, &rec, &err)) return fail("L1 record: " + err);
      const harl::Schedule s = harl::schedule_from_record(
          rec, k.sketches, harl::HardwareConfig::xeon_6226r().num_unroll_options(), &err);
      if (rec.network != k.network || rec.task != k.task || s.sketch == nullptr) {
        return fail("L1 record does not rebuild for " + k.network + "/" + k.task + " " + err);
      }
      if (rec.time_ms != resp.est_time_ms) return fail("L1 record time differs from est_time_ms");
      verified_[static_cast<std::size_t>(key)] = resp.record;
    }
    last_serve_us = resp.serve_us;
    if (out != nullptr) *out = std::move(resp);
    return tier;
  }

  int fail(const std::string& why) {
    if (failures++ == 0) first_failure = why;
    return -1;
  }

  double last_serve_us = 0;
  std::int64_t failures = 0;
  std::string first_failure;

 private:
  const std::vector<Key>& keys_;
  std::vector<std::string> verified_;
};

void merge_failures(const Checker& c, const std::string& phase, Report& report) {
  report.failed += c.failures;
  report.check(c.failures == 0, phase + ": " + std::to_string(c.failures) +
                                    " failed replies, first: " + c.first_failure);
}

bool round_trip(LineClient& c, const std::string& line, std::string* reply, std::string* err) {
  return c.send_line(line, err) && c.recv_line(reply, err, kRecvTimeoutMs);
}

void connect_to(const harl::HarlServer& server, LineClient& c) {
  std::string err;
  if (!c.connect("127.0.0.1", server.port(), &err)) throw std::runtime_error("connect: " + err);
}

/// Estimated bert_b1 latency of the program the daemon serves: the network
/// objective (sum of weight x time over its tasks) of the L1 answers.
/// `replies[k]` answers key k; the other tiers' keys are skipped.
double served_latency_ms(const std::vector<Key>& keys, const std::vector<Response>& replies) {
  double total = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (keys[k].cls == 0) total += keys[k].weight * replies[k].est_time_ms;
  }
  return total;
}

// ----------------------------------------------------------------- daemon

/// A tuning job followed over its connection: the subscription stream's
/// round arrivals and the final done event.
struct JobResult {
  bool done = false;
  std::int64_t trials = 0;
  double latency_ms = 0;
  Clock::time_point submitted, finished;
  std::vector<Clock::time_point> rounds;  // arrival of each round event
};

JobResult run_job(LineClient& c, std::uint64_t seed, std::int64_t trials) {
  JobResult job;
  Request t;
  t.type = RequestType::kTune;
  t.tenant = "bench";
  t.network = "bert";
  t.batch = 1;
  t.hw = kHw;
  t.trials = trials;
  t.seed = seed;
  std::string line, err;
  job.submitted = Clock::now();
  Response ack;
  if (!round_trip(c, harl::request_to_json(t), &line, &err) ||
      !harl::response_from_json(line, &ack, &err) || !ack.ok) {
    throw std::runtime_error("tune admission failed: " + err + ack.error);
  }
  Request sub;
  sub.type = RequestType::kSubscribe;
  sub.job = ack.job;
  if (!c.send_line(harl::request_to_json(sub), &err)) throw std::runtime_error("subscribe: " + err);
  for (;;) {
    Response ev;
    if (!c.recv_line(&line, &err, 300000) || !harl::response_from_json(line, &ev, &err) || !ev.ok) {
      throw std::runtime_error("job stream: " + err + ev.error);
    }
    if (ev.event == "round") {
      job.rounds.push_back(Clock::now());
    } else if (ev.event == "done") {
      job.finished = Clock::now();
      job.done = ev.state == "done";
      job.trials = ev.trials_used;
      job.latency_ms = ev.latency_ms;
      return job;
    }
  }
}

std::unique_ptr<harl::HarlServer> start_server(const std::string& dir, harl::ThreadPool& pool) {
  harl::ServerOptions o;
  o.state_dir = dir;
  o.max_concurrent = 1;
  o.tuning = harl::quick_options(harl::PolicyKind::kHarl);
  o.tuning.pool = &pool;
  auto server = std::make_unique<harl::HarlServer>(o);
  std::string err;
  if (!server->start(&err)) throw std::runtime_error("server start: " + err);
  return server;
}

/// The workload's input: a state dir holding `jobs` finished bert_b1 tuning
/// jobs of `trials` trials each (job j seeded derive_seed(seed, j)), tuned
/// one after another by a daemon that is then shut down.
void prepare_state(const std::string& dir, std::uint64_t seed, int jobs, std::int64_t trials,
                   harl::ThreadPool& pool, Report& report) {
  std::unique_ptr<harl::HarlServer> server = start_server(dir, pool);
  LineClient c;
  connect_to(*server, c);
  for (int j = 0; j < jobs; ++j) {
    const JobResult job = run_job(c, derive_seed(seed, static_cast<std::uint64_t>(j)), trials);
    report.check(job.done && job.trials >= trials,
                 "warm-up job ended with " + std::to_string(job.trials) + " trials");
    report.attempted += job.trials;
  }
  c.close();
  server->shutdown();
}

/// A daemon restarted on the prepared state dir and ready to serve.
struct Daemon {
  std::string dir;  // state dir
  std::unique_ptr<harl::HarlServer> server;
  std::vector<Response> first_replies;  // one per key, for serialize replays
};

/// Set-up: restart a daemon on the prepared state dir (journal recovery)
/// and answer one query per key (the shard hydrates from its record logs),
/// kRepeats times; the median is setup_s and the last daemon serves the
/// measured phases.  Every restart must answer every key alike.  One
/// restart takes 65-100 ms, its time falling in two clusters, so the median
/// needs many restarts to stay in one.
Daemon set_up(const std::string& dir, harl::ThreadPool& pool, const std::vector<Key>& keys,
              Report& report, Tracer* tracer) {
  constexpr int kRepeats = 11;
  std::vector<double> setup_s;
  Daemon d;
  d.dir = dir;
  for (int r = 0; r < kRepeats; ++r) {
    if (d.server != nullptr) d.server->shutdown();
    d.server.reset();
    const Clock::time_point a = Clock::now();
    d.server = start_server(dir, pool);
    LineClient c;
    connect_to(*d.server, c);
    Checker checker(keys);
    std::vector<Response> replies(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      std::string line, err;
      ++report.attempted;
      if (!round_trip(c, keys[k].line, &line, &err)) checker.fail("first query: " + err);
      else checker.check(line, static_cast<int>(k), &replies[k]);
    }
    const Clock::time_point b = Clock::now();
    setup_s.push_back(std::chrono::duration<double>(b - a).count());
    if (tracer != nullptr) tracer->add("serve.setup", 0, a, b);
    merge_failures(checker, "first queries", report);
    bool same = true;
    for (std::size_t k = 0; r > 0 && k < keys.size(); ++k) {
      same &= replies[k].tier == d.first_replies[k].tier &&
              replies[k].record == d.first_replies[k].record &&
              replies[k].est_time_ms == d.first_replies[k].est_time_ms;
    }
    report.check(same, "a restarted daemon answered differently from the one before it");
    d.first_replies = std::move(replies);
  }
  report.set("setup_s", median(setup_s), "s");
  return d;
}

// -------------------------------------------------------------- open loop

struct Sample {
  double latency_us;  // reply time minus due time
  double serve_us;
  int tier;  // -1 = failed
};

/// One open-loop phase.  Request i is due at start + i * period on
/// connection i % 2 and asks for mix.key(0, i).
struct OpenLoop {
  Clock::time_point start;  // first due time
  double period_us = 0;
  std::int64_t sent = 0, replied = 0;
  std::vector<Sample> samples;  // index = request
  std::vector<double> late_us;  // send time minus due time
  std::int64_t failures = 0;
  std::string first_failure;

  Clock::time_point due(std::int64_t i) const {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(static_cast<double>(i) * period_us * 1e3));
  }
};

/// Sends at `rate_qps` from one thread over two pipelined connections until
/// `duration_s` has passed or `stop` is set (then at most `max_s` seconds);
/// one receiver thread per connection matches replies in order.  The sender
/// and the receivers write disjoint slots.  Never throws: a broken
/// connection is recorded as failed queries.
OpenLoop open_loop(const harl::HarlServer& server, const std::vector<Key>& keys, const Mix& mix,
                   double rate_qps, double duration_s, const std::atomic<bool>* stop) {
  constexpr double max_s = 300;
  OpenLoop ol;
  ol.period_us = 1e6 / rate_qps;
  const auto limit = static_cast<std::int64_t>(rate_qps * (stop != nullptr ? max_s : duration_s));
  // Left uninitialized: only the slots of sent requests are ever touched, so
  // an open-ended phase does not grow the resident set up front.
  std::unique_ptr<Sample[]> samples(new Sample[static_cast<std::size_t>(limit)]);
  std::unique_ptr<double[]> late(new double[static_cast<std::size_t>(limit)]);
  LineClient conns[2];
  Checker checkers[2] = {Checker(keys), Checker(keys)};
  Checker send_failures(keys);
  std::string err;
  for (LineClient& c : conns) {
    if (!c.connect("127.0.0.1", server.port(), &err)) {
      ol.failures = 1;
      ol.first_failure = "connect: " + err;
      return ol;
    }
  }
  std::atomic<std::int64_t> sent[2] = {{0}, {0}};
  std::atomic<bool> sender_done{false};
  std::int64_t replied[2] = {0, 0};
  ol.start = Clock::now() + std::chrono::milliseconds(5);

  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake as close to each due time as the kernel can
    std::string e;
    for (std::int64_t i = 0; i < limit; ++i) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
      const Clock::time_point t = ol.due(i);
      if (Clock::now() < t) std::this_thread::sleep_until(t);
      late[static_cast<std::size_t>(i)] = us_between(t, Clock::now());
      const Key& k = keys[static_cast<std::size_t>(mix.key(0, static_cast<std::uint64_t>(i)))];
      if (!conns[i % 2].send_line(k.line, &e)) {
        send_failures.fail("send: " + e);
        break;
      }
      sent[i % 2].store(i / 2 + 1, std::memory_order_release);
    }
    sender_done.store(true, std::memory_order_release);
  });

  auto receive = [&](int j) {
    std::int64_t k = 0;
    std::string line, e;
    for (;;) {
      const bool finished = sender_done.load(std::memory_order_acquire);
      if (finished && k >= sent[j].load(std::memory_order_acquire)) break;
      if (!conns[j].recv_line(&line, &e, finished ? kRecvTimeoutMs : 50)) {
        if (!finished && e.rfind("timed out", 0) == 0) continue;
        checkers[j].fail("receive: " + e);
        break;
      }
      const Clock::time_point now = Clock::now();
      const std::int64_t i = j + 2 * k++;
      Sample& s = samples[static_cast<std::size_t>(i)];
      s.latency_us = us_between(ol.due(i), now);
      s.tier = checkers[j].check(line, mix.key(0, static_cast<std::uint64_t>(i)));
      s.serve_us = checkers[j].last_serve_us;
    }
    replied[j] = k;
  };
  std::thread receivers[2] = {std::thread(receive, 0), std::thread(receive, 1)};
  sender.join();
  for (std::thread& t : receivers) t.join();

  ol.sent = sent[0].load() + sent[1].load();
  ol.replied = replied[0] + replied[1];
  ol.samples.reserve(static_cast<std::size_t>(ol.sent));
  ol.late_us.reserve(static_cast<std::size_t>(ol.sent));
  for (std::int64_t i = 0; i < ol.sent; ++i) {
    Sample s = samples[static_cast<std::size_t>(i)];
    // A request past its connection's last reply never got one.
    if (i / 2 >= replied[i % 2]) s = Sample{0, 0, -1};
    ol.samples.push_back(s);
    ol.late_us.push_back(late[static_cast<std::size_t>(i)]);
  }
  for (const Checker* c : {&send_failures, &checkers[0], &checkers[1]}) {
    ol.failures += c->failures;
    if (ol.first_failure.empty()) ol.first_failure = c->first_failure;
  }
  return ol;
}

/// Open-loop metrics: latency from due time, its server-side and transport
/// parts, the tier mix, and how late the sender ran.
void report_open_loop(const OpenLoop& ol, Report& report, Tracer* tracer) {
  std::vector<double> lat, serve, residual, by_tier[3];
  std::int64_t on_time = 0, tiers[3] = {0, 0, 0};
  for (std::size_t i = 0; i < ol.samples.size(); ++i) {
    const Sample& s = ol.samples[i];
    if (s.tier < 0) continue;
    lat.push_back(s.latency_us);
    serve.push_back(s.serve_us);
    residual.push_back(s.latency_us - ol.late_us[i] - s.serve_us);
    by_tier[s.tier].push_back(s.latency_us);
    ++tiers[s.tier];
    if (s.latency_us <= kSloUs) ++on_time;
  }
  report.attempted += ol.sent;
  report.failed += ol.failures + (ol.sent - ol.replied);
  report.check(ol.failures == 0 && ol.replied == ol.sent,
               "open loop: " + std::to_string(ol.sent - ol.replied) + " of " +
                   std::to_string(ol.sent) + " queries unanswered, " +
                   std::to_string(ol.failures) + " failed, first: " + ol.first_failure);
  const double n = static_cast<double>(std::max<std::int64_t>(1, ol.sent));
  report.set("serve.p50_us", median(lat), "us");
  report.set("serve.lat_p90_us", percentile(lat, 0.90), "us");
  report.set("serve.lat_p99_us", percentile(lat, 0.99), "us");
  report.set("serve.slo_ratio", static_cast<double>(on_time) / n, "ratio");
  report.set("serve.serve_us.p50", median(serve), "us");
  report.set("serve.serve_us.p99", percentile(serve, 0.99), "us");
  report.set("server.residual_us.p50", median(residual), "us");
  const char* tier_names[3] = {"l1", "l2", "l3"};
  for (int t = 0; t < 3; ++t) {
    report.set(std::string("serve.") + tier_names[t] + "_us.p50", median(by_tier[t]), "us");
    report.set(std::string("serve.") + tier_names[t] + "_ratio", static_cast<double>(tiers[t]) / n,
               "ratio");
  }
  report.set("loadgen.late_us.p99", percentile(ol.late_us, 0.99), "us");
  report.set("loadgen.late_us.max", percentile(ol.late_us, 1.0), "us");
  report.set("loadgen.sent", static_cast<double>(ol.sent), "count");
  for (std::size_t i = 0; tracer != nullptr && i < ol.samples.size(); ++i) {
    const Clock::time_point due = ol.due(static_cast<std::int64_t>(i));
    const Clock::time_point end =
        due + std::chrono::nanoseconds(static_cast<std::int64_t>(ol.samples[i].latency_us * 1e3));
    tracer->add("loadgen.query", 0, due, end, Tracer::Key::kReq, static_cast<std::int64_t>(i));
  }
}

// ------------------------------------------------------------- saturation

/// The daemon's capacity: two connections, each kept kWindow requests deep
/// by its own thread, for `duration_s`.  Replies ok are counted per
/// kSliceS slice of the phase; returns the median slice's rate in queries
/// per second (a stall of the host then costs one slice, not the run).
/// Adds the queries sent to `*queries`.
double saturate(const harl::HarlServer& server, const std::vector<Key>& keys, const Mix& mix,
                double duration_s, Report& report, std::int64_t* queries) {
  constexpr int kConns = 2, kWindow = 16;
  constexpr double kSliceS = 0.5;
  const auto slices = static_cast<std::size_t>(std::max(1.0, std::floor(duration_s / kSliceS)));
  struct Worker {
    std::int64_t sent = 0, received = 0;
    std::vector<std::int64_t> ok_per_slice;
  };
  std::vector<Worker> workers(kConns);
  std::vector<Checker> checkers(kConns, Checker(keys));
  LineClient conns[kConns];
  for (LineClient& c : conns) connect_to(server, c);
  const Clock::time_point start = Clock::now();
  const auto slice = std::chrono::duration<double>(kSliceS);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(slice * static_cast<double>(slices));
  std::vector<std::thread> threads;
  for (int w = 0; w < kConns; ++w) {
    threads.emplace_back([&, w] {
      Worker& me = workers[static_cast<std::size_t>(w)];
      Checker& checker = checkers[static_cast<std::size_t>(w)];
      me.ok_per_slice.assign(slices, 0);
      const auto stream = static_cast<std::uint64_t>(w + 1);
      std::string line, e;
      auto send = [&] {
        const int key = mix.key(stream, static_cast<std::uint64_t>(me.sent));
        ++me.sent;
        return conns[w].send_line(keys[static_cast<std::size_t>(key)].line, &e);
      };
      bool open = true;
      for (int i = 0; open && i < kWindow; ++i) open = send();
      while (open && me.received < me.sent) {
        if (!conns[w].recv_line(&line, &e, kRecvTimeoutMs)) break;
        const Clock::time_point now = Clock::now();
        const int key = mix.key(stream, static_cast<std::uint64_t>(me.received++));
        if (checker.check(line, key) >= 0 && now < deadline) {
          ++me.ok_per_slice[static_cast<std::size_t>((now - start) / slice)];
        }
        if (now < deadline) open = send();
      }
      if (me.received < me.sent) checker.fail("saturation: " + e);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> rates(slices, 0.0);
  for (int w = 0; w < kConns; ++w) {
    const Worker& me = workers[static_cast<std::size_t>(w)];
    for (std::size_t s = 0; s < slices; ++s) rates[s] += static_cast<double>(me.ok_per_slice[s]) / kSliceS;
    report.attempted += me.sent;
    *queries += me.sent;
    merge_failures(checkers[static_cast<std::size_t>(w)], "saturation", report);
  }
  return median(rates);
}

// ------------------------------------------------------------- epilogue

/// Server counters, checked against the queries this run sent.
void report_stats(const harl::HarlServer& server, std::int64_t expected_queries, Report& report) {
  LineClient c;
  connect_to(server, c);
  Request s;
  s.type = RequestType::kStats;
  std::string line, err;
  Response st;
  if (!round_trip(c, harl::request_to_json(s), &line, &err) ||
      !harl::response_from_json(line, &st, &err) || !st.ok) {
    report.check(false, "stats request failed: " + err);
    return;
  }
  report.check(st.queries == expected_queries, "server counted " + std::to_string(st.queries) +
                                                   " queries, the load generator sent " +
                                                   std::to_string(expected_queries));
  report.set("serve.invalidations", static_cast<double>(st.invalidations), "count");
  report.set("serve.refreshes", static_cast<double>(st.refreshes), "count");
}

/// Protocol codec replays on the open loop's request sequence: parse each
/// request line, serialize the reply its key got during set-up.
void replay_codec(const OpenLoop& ol, const std::vector<Key>& keys, const Mix& mix,
                  const std::vector<Response>& replies, Report& report, Tracer& tracer) {
  std::vector<int> seq;
  for (std::int64_t i = 0; i < ol.sent; ++i) seq.push_back(mix.key(0, static_cast<std::uint64_t>(i)));
  Request req;
  std::string err;
  std::size_t parsed = 0, bytes = 0;
  const Clock::time_point a = Clock::now();
  for (int k : seq) parsed += harl::request_from_json(keys[static_cast<std::size_t>(k)].line, &req, &err);
  const Clock::time_point b = Clock::now();
  for (int k : seq) bytes += harl::response_to_json(replies[static_cast<std::size_t>(k)]).size();
  const Clock::time_point c = Clock::now();
  tracer.add("server.parse", 0, a, b, Tracer::Key::kNone, -1, true);
  tracer.add("server.serialize", 0, b, c, Tracer::Key::kNone, -1, true);
  const double n = static_cast<double>(std::max<std::size_t>(1, seq.size()));
  report.set("server.parse_us", us_between(a, b) / n, "us");
  report.set("server.serialize_us", us_between(b, c) / n, "us");
  report.check(parsed == seq.size() && bytes > 0, "codec replay failed");
}

std::vector<std::string> jsonl_files(const std::string& dir) {
  std::vector<std::string> out;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 6 && name.compare(name.size() - 6, 6, ".jsonl") == 0) out.push_back(dir + "/" + name);
    }
    ::closedir(d);
  }
  return out;
}

/// After the read-write jobs, each bert_b1 task must be answered with its
/// minimum-time record across the shard's record logs.  Fills `replies` at
/// the bert_b1 keys; returns the queries sent.
std::int64_t check_final_answers(LineClient& c, const std::string& shard_dir,
                                 const std::vector<Key>& keys, std::vector<Response>& replies,
                                 Report& report) {
  std::vector<harl::TuningRecord> records;
  for (const std::string& log : jsonl_files(shard_dir)) {
    for (harl::TuningRecord& r : harl::read_records(log)) records.push_back(std::move(r));
  }
  const std::uint64_t hw_fp = harl::HardwareConfig::xeon_6226r().fingerprint();
  Checker checker(keys);
  std::int64_t sent = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (keys[k].cls != 0) continue;
    double best = std::numeric_limits<double>::infinity();
    for (const harl::TuningRecord& r : records) {
      if (r.network == keys[k].network && r.task == keys[k].task && r.fail.empty() &&
          r.hardware_fp == hw_fp && r.time_ms > 0) {
        best = std::min(best, r.time_ms);
      }
    }
    std::string line, err;
    Response& resp = replies[k];
    ++sent;
    if (!round_trip(c, keys[k].line, &line, &err)) {
      checker.fail("final query: " + err);
      continue;
    }
    if (checker.check(line, static_cast<int>(k), &resp) < 0) continue;
    report.check(resp.est_time_ms == best, "final answer for " + keys[k].task + " is " +
                                               std::to_string(resp.est_time_ms) +
                                               " ms, the logs' best " + std::to_string(best) + " ms");
  }
  merge_failures(checker, "final queries", report);
  report.attempted += sent;
  return sent;
}

}  // namespace

void run_serve_workload(const Args& args, harl::ThreadPool& pool, Report& report, Tracer* tracer) {
  const bool read_write = args.workload == "serve-read-write";
  if (!read_write && args.workload != "serve-read") {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  std::vector<harl::Network> networks;
  const std::vector<Key> keys = make_keys(networks);
  const Mix mix(keys, args.seed);

  // The input.  serve-read serves the records of two long warm-up jobs;
  // serve-read-write only needs every bert_b1 task in L1 before its own jobs
  // start.  tune.final_latency_ms is the latency of the program the daemon
  // then serves, over two jobs so that one seed's search does not decide it.
  const std::string dir = args.workdir + "/state";
  const int warm_jobs = read_write ? 1 : 2;
  const std::int64_t warm_trials = args.smoke ? 100 : read_write ? 200 : 1200;
  prepare_state(dir, args.seed, warm_jobs, warm_trials, pool, report);
  // The warm-up daemon is gone: return its heap and restart the peak, so
  // peak_rss_mb covers set-up and the measured phases only.
  malloc_trim(0);
  reset_peak_rss();

  Daemon d = set_up(dir, pool, keys, report, tracer);
  std::int64_t queries = static_cast<std::int64_t>(keys.size());
  OpenLoop ol;

  if (!read_write) {
    const double open_s = args.smoke ? 1.0 : 0.3 * args.seconds;
    const double saturate_s = args.smoke ? 1.0 : 0.7 * args.seconds;
    const Clock::time_point a = Clock::now();
    ol = open_loop(*d.server, keys, mix, 10000.0, open_s, nullptr);
    const Clock::time_point b = Clock::now();
    const double capacity = saturate(*d.server, keys, mix, saturate_s, report, &queries);
    const Clock::time_point c = Clock::now();
    queries += ol.sent;
    report_open_loop(ol, report, tracer);
    report.set("serve.max_qps", capacity, "1/s");
    report.set("tune.final_latency_ms", served_latency_ms(keys, d.first_replies), "ms");
    if (tracer != nullptr) {
      tracer->add("serve.open_loop", 0, a, b);
      tracer->add("serve.saturate", 0, b, c);
    }
  } else {
    // Two jobs, one after the other on their own connection, while the open
    // loop reads.
    constexpr int kJobs = 2;
    const std::int64_t trials = args.smoke ? 150 : 75 * args.seconds;
    LineClient job_conn;
    connect_to(*d.server, job_conn);
    std::atomic<bool> stop{false};
    std::thread load([&] { ol = open_loop(*d.server, keys, mix, 5000.0, 0, &stop); });
    std::vector<JobResult> jobs;
    try {
      for (int j = 0; j < kJobs; ++j) {
        jobs.push_back(run_job(job_conn, derive_seed(args.seed, static_cast<std::uint64_t>(warm_jobs + j)),
                               trials));
      }
    } catch (...) {
      stop.store(true, std::memory_order_release);
      load.join();
      throw;
    }
    stop.store(true, std::memory_order_release);
    load.join();
    queries += ol.sent;
    report_open_loop(ol, report, tracer);

    std::int64_t job_trials = 0;
    std::vector<double> round_ms;
    for (const JobResult& job : jobs) {
      report.check(job.done && job.trials >= trials,
                   "read-write job ended with " + std::to_string(job.trials) + " trials");
      report.attempted += job.trials;
      job_trials += job.trials;
      Clock::time_point prev = job.submitted;
      for (const Clock::time_point& at : job.rounds) {
        if (tracer != nullptr) {
          tracer->add("search.round", 0, prev, at, Tracer::Key::kRound,
                      static_cast<std::int64_t>(round_ms.size()));
        }
        round_ms.push_back(ms_between(prev, at));
        prev = at;
      }
      if (tracer != nullptr) tracer->add("serve.job", 0, job.submitted, job.finished);
    }
    const double jobs_s = std::chrono::duration<double>(jobs.back().finished - jobs.front().submitted).count();
    report.set("tune.trials_per_s", static_cast<double>(job_trials) / jobs_s, "1/s");
    report.set("search.rounds", static_cast<double>(round_ms.size()), "count");
    report.set("search.round_ms.p50", median(round_ms), "ms");
    report.set("search.round_ms.p99", percentile(round_ms, 0.99), "ms");
    std::vector<Response> answers(keys.size());
    queries += check_final_answers(job_conn, d.dir + "/" + kHw, keys, answers, report);
    report.set("tune.final_latency_ms", served_latency_ms(keys, answers), "ms");
  }

  report_stats(*d.server, queries, report);
  if (tracer != nullptr) replay_codec(ol, keys, mix, d.first_replies, report, *tracer);
  d.server->shutdown();
}

}  // namespace e2e
