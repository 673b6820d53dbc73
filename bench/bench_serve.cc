// Serving front-end benchmark (docs/ARCHITECTURE.md §14): a loopback
// ScubaServer driven by one client at 100% update rate while N subscriber
// sessions fold the pushed delta stream. Measures
//
//   - round throughput as the subscriber count grows (the push fan-out is
//     per-session work on the event loop);
//   - bytes on the wire: the per-round delta stream versus re-sending the
//     full result set every round (the delta-push payoff the redesigned
//     results API exists for) — the bench fails if deltas are not smaller;
//   - push fan-out latency: driver ack to every subscriber folded;
//   - the slow-consumer guarantee: a subscriber that never reads stays
//     byte-bounded (coalesce-to-snapshot) and costs the fast sessions
//     nothing, then catches up from one snapshot.
//
// Writes BENCH_serve.json so the perf trajectory is tracked across PRs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/scuba_options.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/engine_factory.h"

namespace scuba::bench {
namespace {

using serve::ScubaClient;
using serve::ScubaServer;
using serve::ServeOptions;
using serve::ServerDeps;
using serve::ServerStats;
using serve::SlowConsumerPolicy;
using serve::UpdateBatchMsg;
using serve::TickAckMsg;
using serve::EncodeSnapshot;
using serve::SnapshotMsg;

struct ServeScale {
  uint32_t objects = 2000;
  uint32_t queries = 500;
  int ticks = 24;
};

ServeScale ReadServeScale() {
  ServeScale scale;
  const char* fast = std::getenv("SCUBA_BENCH_FAST");
  if (fast != nullptr && fast[0] == '1') {
    scale.objects = 400;
    scale.queries = 100;
    scale.ticks = 8;
  }
  return scale;
}

struct TickBatch {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

/// 100% update rate: every object reports every tick, drifting smoothly so
/// rounds churn a little (the delta regime) instead of completely. Queries
/// register once in the first tick and then stand still.
std::vector<TickBatch> MakeWorkload(const ServeScale& scale) {
  Rng rng(0x5C0BA);
  std::vector<Point> base(scale.objects);
  std::vector<Point> drift(scale.objects);
  for (uint32_t i = 0; i < scale.objects; ++i) {
    base[i] = Point{rng.NextDouble() * 9000.0 + 500.0,
                    rng.NextDouble() * 9000.0 + 500.0};
    drift[i] = Point{rng.NextDouble() * 30.0 - 15.0,
                     rng.NextDouble() * 30.0 - 15.0};
  }
  std::vector<TickBatch> out(static_cast<size_t>(scale.ticks));
  for (int t = 0; t < scale.ticks; ++t) {
    TickBatch& batch = out[static_cast<size_t>(t)];
    batch.objects.reserve(scale.objects);
    for (uint32_t i = 0; i < scale.objects; ++i) {
      LocationUpdate u;
      u.oid = i;
      u.position = Point{base[i].x + drift[i].x * t,
                         base[i].y + drift[i].y * t};
      u.speed = 5.0;
      u.dest_node = 0;
      u.dest_position = Point{9000, 9000};
      u.attrs = 0x1u;
      u.time = static_cast<Timestamp>(t + 1);
      batch.objects.push_back(u);
    }
    if (t == 0) {
      for (uint32_t q = 0; q < scale.queries; ++q) {
        QueryUpdate u;
        u.qid = q;
        u.position = Point{rng.NextDouble() * 9000.0 + 500.0,
                           rng.NextDouble() * 9000.0 + 500.0};
        u.speed = 0.0;
        u.dest_node = 0;
        u.dest_position = u.position;
        u.range_width = 400.0;
        u.range_height = 400.0;
        u.time = 1;
        batch.queries.push_back(u);
      }
    }
  }
  return out;
}

struct ServerUnderTest {
  EngineHandle engine;
  std::unique_ptr<ScubaServer> server;
};

ServerUnderTest StartServer(const ServeOptions& serve) {
  ServerUnderTest out;
  ScubaOptions opt;
  Result<EngineHandle> handle = MakeEngine(opt);
  SCUBA_CHECK_MSG(handle.ok(), handle.status().ToString().c_str());
  out.engine = std::move(handle).value();
  ServerDeps deps;
  deps.engine = out.engine.engine.get();
  Result<std::unique_ptr<ScubaServer>> server = ScubaServer::Create(serve, deps);
  SCUBA_CHECK_MSG(server.ok(), server.status().ToString().c_str());
  out.server = std::move(server).value();
  SCUBA_CHECK(out.server->Start().ok());
  return out;
}

ScubaClient ConnectOrDie(uint16_t port, const std::string& name) {
  ScubaClient::Options options;
  options.name = name;
  Result<ScubaClient> client = ScubaClient::Connect(port, options);
  SCUBA_CHECK_MSG(client.ok(), client.status().ToString().c_str());
  return std::move(client).value();
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SweepOutcome {
  uint32_t sessions = 0;
  uint64_t rounds = 0;
  double wall_seconds = 0.0;
  double updates_per_second = 0.0;
  double avg_fanout_ms = 0.0;  ///< Driver ack -> all subscribers folded.
  uint64_t delta_wire_bytes = 0;  ///< Per subscriber (framed).
  uint64_t full_wire_bytes = 0;   ///< Framed snapshot every round instead.
  uint64_t final_matches = 0;
};

SweepOutcome RunSweep(const std::vector<TickBatch>& ticks, uint32_t sessions,
                      Timestamp delta) {
  SweepOutcome out;
  out.sessions = sessions;
  ServerUnderTest sut = StartServer(ServeOptions{});

  ScubaClient driver = ConnectOrDie(sut.server->port(), "driver");
  std::vector<ScubaClient> subs;
  for (uint32_t i = 0; i < sessions; ++i) {
    subs.push_back(ConnectOrDie(sut.server->port(),
                                "sub-" + std::to_string(i)));
    SCUBA_CHECK(subs.back().SubscribeAll().ok());
  }

  double fanout_seconds = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < ticks.size(); ++t) {
    UpdateBatchMsg batch;
    batch.time = static_cast<Timestamp>(t + 1);
    batch.evaluate = (t + 1) % static_cast<size_t>(delta) == 0;
    batch.objects = ticks[t].objects;
    batch.queries = ticks[t].queries;
    Result<TickAckMsg> ack = driver.SendBatch(batch);
    SCUBA_CHECK_MSG(ack.ok(), ack.status().ToString().c_str());
    if (!batch.evaluate) continue;
    ++out.rounds;
    const auto acked = std::chrono::steady_clock::now();
    for (ScubaClient& sub : subs) {
      Status pumped = sub.PumpUntilRound(out.rounds);
      SCUBA_CHECK_MSG(pumped.ok(), pumped.ToString().c_str());
    }
    fanout_seconds += Seconds(acked, std::chrono::steady_clock::now());
    // What a full-result protocol would have sent this round instead of the
    // delta: one framed snapshot of the entire folded answer.
    SnapshotMsg full;
    full.round = out.rounds;
    full.time = batch.time;
    full.matches = subs.front().folded().matches();
    out.full_wire_bytes +=
        serve::kFrameHeaderBytes + EncodeSnapshot(full).size();
  }
  out.wall_seconds = Seconds(start, std::chrono::steady_clock::now());

  const ScubaClient& probe = subs.front();
  SCUBA_CHECK(probe.coalesced_snapshots() == 0);
  SCUBA_CHECK(probe.deltas_received() == out.rounds);
  // Framed wire bytes: payload plus the 8-byte length/CRC header per push
  // (rounds' deltas plus the subscribe-ack snapshot).
  out.delta_wire_bytes =
      probe.result_bytes_received() +
      serve::kFrameHeaderBytes *
          (probe.deltas_received() + probe.snapshots_received());
  out.final_matches = probe.folded().size();
  out.updates_per_second =
      out.wall_seconds > 0.0
          ? static_cast<double>(ticks.size() * ticks[0].objects.size()) /
                out.wall_seconds
          : 0.0;
  out.avg_fanout_ms =
      out.rounds > 0 ? fanout_seconds * 1000.0 / static_cast<double>(out.rounds)
                     : 0.0;

  for (ScubaClient& sub : subs) SCUBA_CHECK(sub.Bye().ok());
  SCUBA_CHECK(driver.Shutdown().ok());
  SCUBA_CHECK(sut.server->Wait().ok());
  return out;
}

struct SlowOutcome {
  uint64_t rounds = 0;
  uint64_t coalesces = 0;
  uint64_t fast_deltas = 0;
  uint64_t fast_wire_bytes = 0;
  uint64_t slow_wire_bytes = 0;
  size_t queue_cap_bytes = 0;
  bool slow_caught_up = false;
  double wall_seconds = 0.0;
};

/// The slow-consumer stream: the workload replayed three times (objects snap
/// back to their start positions between passes, so the pass-boundary deltas
/// are large). One shared shape for the probe run and the measured run.
template <typename PerRound>
void DriveSlowStream(const std::vector<TickBatch>& ticks, Timestamp delta,
                     int passes, ScubaClient* driver, uint64_t* rounds,
                     PerRound&& per_round) {
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t t = 0; t < ticks.size(); ++t) {
      const Timestamp now = static_cast<Timestamp>(
          static_cast<size_t>(pass) * ticks.size() + t + 1);
      UpdateBatchMsg batch;
      batch.time = now;
      batch.evaluate = (t + 1) % static_cast<size_t>(delta) == 0;
      batch.objects = ticks[t].objects;
      batch.queries = pass == 0 ? ticks[t].queries
                                : std::vector<QueryUpdate>{};
      for (LocationUpdate& u : batch.objects) u.time = now;
      SCUBA_CHECK(driver->SendBatch(batch).ok());
      if (!batch.evaluate) continue;
      ++*rounds;
      per_round(*rounds);
    }
  }
}

struct StreamProbe {
  size_t max_round_wire_bytes = 0;
  size_t total_wire_bytes = 0;
};

/// Dry run of the slow-consumer stream with a draining subscriber, recording
/// the largest single push and the stream total — the two numbers that size
/// a queue cap no single frame can trip but an unread backlog must.
StreamProbe ProbeSlowStream(const std::vector<TickBatch>& ticks,
                            Timestamp delta) {
  StreamProbe probe;
  ServerUnderTest sut = StartServer(ServeOptions{});
  ScubaClient driver = ConnectOrDie(sut.server->port(), "driver");
  ScubaClient sub = ConnectOrDie(sut.server->port(), "probe");
  SCUBA_CHECK(sub.SubscribeAll().ok());
  uint64_t rounds = 0;
  size_t prev_bytes = sub.result_bytes_received();
  DriveSlowStream(ticks, delta, /*passes=*/3, &driver, &rounds,
                  [&](uint64_t round) {
    SCUBA_CHECK(sub.PumpUntilRound(round).ok());
    const size_t wire =
        sub.result_bytes_received() - prev_bytes + serve::kFrameHeaderBytes;
    prev_bytes = sub.result_bytes_received();
    probe.max_round_wire_bytes = std::max(probe.max_round_wire_bytes, wire);
    probe.total_wire_bytes += wire;
  });
  SCUBA_CHECK(sub.Bye().ok());
  SCUBA_CHECK(driver.Shutdown().ok());
  SCUBA_CHECK(sut.server->Wait().ok());
  return probe;
}

/// One subscriber never reads while the round stream runs; kCoalesce must
/// keep its server-side queue bounded without slowing the fast session, and
/// one snapshot must catch it up afterwards. The caller sizes the cap from
/// ProbeSlowStream so a single delta always fits but the backlog cannot.
/// Kernel socket buffers are clamped (server SO_SNDBUF, slow client
/// SO_RCVBUF) so backlog actually lands in the server's accounted queue
/// instead of hiding in opaque kernel memory.
SlowOutcome RunSlowConsumer(const std::vector<TickBatch>& ticks,
                            Timestamp delta, int passes,
                            size_t queue_cap_bytes) {
  SlowOutcome out;
  out.queue_cap_bytes = queue_cap_bytes;
  ServeOptions serve;
  serve.slow_consumer = SlowConsumerPolicy::kCoalesce;
  serve.max_queue_bytes = queue_cap_bytes;
  serve.socket_send_buffer_bytes = 4096;
  ServerUnderTest sut = StartServer(serve);

  ScubaClient driver = ConnectOrDie(sut.server->port(), "driver");
  ScubaClient fast = ConnectOrDie(sut.server->port(), "fast");
  ScubaClient::Options slow_options;
  slow_options.name = "slow";
  slow_options.recv_buffer_bytes = 4096;
  Result<ScubaClient> slow_client =
      ScubaClient::Connect(sut.server->port(), slow_options);
  SCUBA_CHECK_MSG(slow_client.ok(), slow_client.status().ToString().c_str());
  ScubaClient slow = std::move(slow_client).value();
  SCUBA_CHECK(fast.SubscribeAll().ok());
  SCUBA_CHECK(slow.SubscribeAll().ok());

  const auto start = std::chrono::steady_clock::now();
  DriveSlowStream(ticks, delta, passes, &driver, &out.rounds,
                  [&](uint64_t round) {
                    SCUBA_CHECK(fast.PumpUntilRound(round).ok());
                    // `slow` deliberately never reads here.
                  });
  out.wall_seconds = Seconds(start, std::chrono::steady_clock::now());

  // The backlog collapses to (at most) one snapshot plus the cap's worth of
  // recent deltas; catching up is one pump to the final round.
  SCUBA_CHECK(slow.PumpUntilRound(out.rounds).ok());
  out.slow_caught_up = slow.folded() == fast.folded();
  out.fast_deltas = fast.deltas_received();
  out.fast_wire_bytes = fast.result_bytes_received();
  out.slow_wire_bytes = slow.result_bytes_received();

  SCUBA_CHECK(fast.Bye().ok());
  SCUBA_CHECK(slow.Bye().ok());
  SCUBA_CHECK(driver.Shutdown().ok());
  SCUBA_CHECK(sut.server->Wait().ok());
  ServerStats stats = sut.server->stats();
  out.coalesces = stats.coalesces;
  return out;
}

void Run() {
  const ServeScale scale = ReadServeScale();
  const Timestamp delta = 2;
  const std::vector<TickBatch> ticks = MakeWorkload(scale);

  std::printf("=== serve: delta-push fan-out (protocol v%u) ===\n",
              serve::kProtocolVersion);
  std::printf(
      "workload: %u objects + %u standing queries, %d ticks, delta=%lld, "
      "100%% update rate\n\n",
      scale.objects, scale.queries, scale.ticks,
      static_cast<long long>(delta));

  std::printf("%-10s %8s %10s %14s %12s %14s %14s %8s\n", "sessions", "rounds",
              "wall(s)", "updates/s", "fanout(ms)", "delta bytes",
              "full bytes", "ratio");
  std::vector<SweepOutcome> outcomes;
  for (uint32_t sessions : {1u, 4u, 8u}) {
    SweepOutcome out = RunSweep(ticks, sessions, delta);
    const double ratio =
        out.full_wire_bytes > 0
            ? static_cast<double>(out.delta_wire_bytes) /
                  static_cast<double>(out.full_wire_bytes)
            : 0.0;
    std::printf("%-10u %8llu %10.4f %14.0f %12.3f %14llu %14llu %7.2f%%\n",
                out.sessions, static_cast<unsigned long long>(out.rounds),
                out.wall_seconds, out.updates_per_second, out.avg_fanout_ms,
                static_cast<unsigned long long>(out.delta_wire_bytes),
                static_cast<unsigned long long>(out.full_wire_bytes),
                100.0 * ratio);
    if (!outcomes.empty()) {
      SCUBA_CHECK_MSG(out.final_matches == outcomes.front().final_matches,
                      "session count must not change the answer");
    }
    outcomes.push_back(out);
  }
  // The acceptance bar: the delta stream beats resending full results.
  for (const SweepOutcome& out : outcomes) {
    SCUBA_CHECK_MSG(out.delta_wire_bytes < out.full_wire_bytes,
                    "delta push must cost fewer bytes than full-result push");
  }

  // Size the cap from a probe of the same stream: 1.5x the largest single
  // push (so the fast session never trips it), then enough passes that the
  // unread backlog overflows both the clamped kernel buffers (~16 KiB
  // in-flight with 4 KiB SNDBUF/RCVBUF; 64 KiB of margin here) and the cap.
  const StreamProbe probe = ProbeSlowStream(ticks, delta);
  const size_t slow_cap = probe.max_round_wire_bytes * 3 / 2;
  const size_t per_pass = probe.total_wire_bytes / 3;
  SCUBA_CHECK_MSG(per_pass > 0, "probe saw an empty stream");
  const size_t needed = (1u << 16) + 2 * slow_cap;
  const int passes =
      static_cast<int>(std::max<size_t>(3, needed / per_pass + 2));
  SlowOutcome slow = RunSlowConsumer(ticks, delta, passes, slow_cap);
  std::printf(
      "\nslow consumer (kCoalesce, %zu-byte queue cap): rounds=%llu "
      "coalesces=%llu fast-deltas=%llu slow-bytes=%llu fast-bytes=%llu "
      "caught-up=%s\n",
      slow.queue_cap_bytes,
      static_cast<unsigned long long>(slow.rounds),
      static_cast<unsigned long long>(slow.coalesces),
      static_cast<unsigned long long>(slow.fast_deltas),
      static_cast<unsigned long long>(slow.slow_wire_bytes),
      static_cast<unsigned long long>(slow.fast_wire_bytes),
      slow.slow_caught_up ? "yes" : "no");
  SCUBA_CHECK_MSG(slow.slow_caught_up, "slow consumer failed to catch up");
  SCUBA_CHECK_MSG(slow.coalesces > 0,
                  "the unread backlog never overflowed the cap — the "
                  "scenario proved nothing");
  SCUBA_CHECK_MSG(slow.fast_deltas == slow.rounds,
                  "the slow consumer must not stall the fast session");
  SCUBA_CHECK_MSG(slow.slow_wire_bytes < slow.fast_wire_bytes,
                  "coalescing should cost the slow consumer fewer wire bytes "
                  "than the full stream");

  JsonWriter json;
  json.Str("bench", "serve");
  json.Int("protocol_version", serve::kProtocolVersion);
  json.Object("workload");
  json.Int("objects", scale.objects);
  json.Int("queries", scale.queries);
  json.Int("ticks", scale.ticks);
  json.Int("delta", delta);
  json.Close();
  json.Array("sweep");
  for (const SweepOutcome& out : outcomes) {
    const double ratio =
        out.full_wire_bytes > 0
            ? static_cast<double>(out.delta_wire_bytes) /
                  static_cast<double>(out.full_wire_bytes)
            : 0.0;
    json.Object();
    json.Int("sessions", out.sessions);
    json.Int("rounds", out.rounds);
    json.Num("wall_seconds", out.wall_seconds, 6);
    json.Num("updates_per_second", out.updates_per_second, 0);
    json.Num("avg_fanout_ms", out.avg_fanout_ms, 4);
    json.Int("delta_wire_bytes", out.delta_wire_bytes);
    json.Int("full_wire_bytes", out.full_wire_bytes);
    json.Num("delta_to_full_ratio", ratio, 4);
    json.Int("final_matches", out.final_matches);
    json.Close();
  }
  json.Close();
  json.Object("slow_consumer");
  json.Str("policy", "coalesce");
  json.Int("queue_cap_bytes", slow.queue_cap_bytes);
  json.Int("rounds", slow.rounds);
  json.Int("coalesces", slow.coalesces);
  json.Int("fast_deltas", slow.fast_deltas);
  json.Int("slow_wire_bytes", slow.slow_wire_bytes);
  json.Int("fast_wire_bytes", slow.fast_wire_bytes);
  json.Bool("caught_up", slow.slow_caught_up);
  json.Close();
  json.Save("BENCH_serve.json");
}

}  // namespace
}  // namespace scuba::bench

int main() {
  scuba::bench::Run();
  return 0;
}
