// perfbench -- service_packed, the workload that goes through catalystd's
// request path in process: packed SUBMIT bytes into a service::Session, the
// ServiceCore queue, the analysis engine, and the RESULT frame back out.
// One op is a round of six SUBMITs, one per category: the wire decode and
// CRC plus the engine's unpack and the analysis stages, with no JSON.
//
// Set-up does what `catalyst collect` and a fresh daemon would: it builds
// every category (the dcache pointer-chase simulation dominates), runs the
// pipeline, checks the result against the paper's tables, saves and reloads
// the archive, and warms the ServiceCore's catalog.
//
// The service runs with no worker threads: the client calls
// ServiceCore::run_one itself between SUBMIT and POLL, so nothing spins and
// the one driver thread is the only one on a CPU.
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "bench.hpp"
#include "core/io.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "faults/faults.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace catalyst;
namespace wire = catalyst::service::wire;

namespace {

/// One client connection: a Session fed whole frames, replies decoded with
/// the client-side FrameDecoder.  Sessions are rotated before the
/// ServiceCore's cumulative per-session byte quota would refuse a SUBMIT.
class Client {
 public:
  Client(service::ServiceCore& core, faults::Clock& clock)
      : core_(core), clock_(clock) {
    open();
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Feeds one frame and returns the single reply it produces.
  wire::Frame exchange(const std::string& frame) {
    session_->on_bytes(clock_.now(), frame.data(), frame.size());
    sent_bytes_ += frame.size();
    if (session_->has_output()) {
      const std::string reply = session_->take_output();
      decoder_->feed(reply.data(), reply.size());
    }
    if (decoder_->error()) {
      throw std::runtime_error("reply stream failed to decode: " +
                               decoder_->error()->message);
    }
    std::optional<wire::Frame> reply = decoder_->next();
    if (!reply) throw std::runtime_error("no reply to a client frame");
    return std::move(*reply);
  }

  /// Opens a fresh session when `next_bytes` more would cross three
  /// quarters of the quota (frame bytes over-count what the quota charges).
  void rotate_if_needed(std::uint64_t next_bytes) {
    if (sent_bytes_ + next_bytes <=
        core_.options().max_bytes_per_session / 4 * 3) {
      return;
    }
    close();
    open();
  }

 private:
  void open() {
    id_ += 1;
    session_.emplace(id_, &core_, service::Session::Limits{}, clock_.now());
    decoder_.emplace();
    sent_bytes_ = 0;
    const wire::Frame reply = exchange(
        wire::encode_frame(wire::FrameType::hello, "perfbench"));
    if (reply.type != wire::FrameType::hello_ok) {
      throw std::runtime_error("HELLO answered with " +
                               std::string(wire::to_string(reply.type)));
    }
  }
  void close() {
    if (!session_) return;
    session_->on_eof();
    core_.forget_session(id_);
    session_.reset();
  }

  service::ServiceCore& core_;
  faults::Clock& clock_;
  service::SessionId id_ = 0;
  std::optional<service::Session> session_;
  std::optional<wire::FrameDecoder> decoder_;
  std::uint64_t sent_bytes_ = 0;
};

/// One category's prepared request and the answer it must produce.
struct Item {
  std::string submit_frame;
  /// render_result of an in-process analyze_archive over the same archive:
  /// the RESULT text must be byte-identical to it.
  std::string reference;
};

/// What `catalyst analyze <category>` must print.  The four paper
/// categories are checked through their rounded table against tests/golden
/// (Tables V-VIII); icache and gpu_dcache, which have no paper table,
/// through their full rendering against perfbench/reference.
struct Expected {
  std::string title;  ///< Rounded-table title; empty = compare rendering.
  std::string text;
};

std::map<std::string, Expected> expected_outputs(const std::string& root) {
  std::map<std::string, Expected> expected;
  const auto golden = [&](const char* category, const char* file,
                          const char* title) {
    expected[category] = {title, read_file(root + "/tests/golden/" + file)};
  };
  golden("cpu_flops", "table5_cpu_flops_saphira.txt",
         "Table V: CPU FLOPS metrics (saphira)");
  golden("gpu_flops", "table6_gpu_flops_tempest.txt",
         "Table VI: GPU FLOPS metrics (tempest)");
  golden("branch", "table7_branch_saphira.txt",
         "Table VII: branch metrics (saphira)");
  golden("dcache", "table8_dcache_saphira.txt",
         "Table VIII: data-cache metrics (saphira)");
  for (const char* category : {"icache", "gpu_dcache"}) {
    expected[category] = {
        "", read_file(root + "/perfbench/reference/" + category + ".txt")};
  }
  return expected;
}

class ServicePacked final : public Workload {
 public:
  explicit ServicePacked(const WorkloadContext& ctx)
      : seeds_(ctx.seed), expected_(expected_outputs(ctx.root)) {}

  void setup(Layers& layers) override {
    client_.reset();  // Its session points into core_.
    core_.reset();
    items_.clear();
    round_bytes_ = 0;

    service::ServiceCore::Options options;
    options.workers = 0;
    options.clock = &clock_;
    core_ = std::make_unique<service::ServiceCore>(options);

    for (const std::string& category : service::category_names()) {
      // The daemon builds its catalog lazily on the first request; building
      // it here puts that cost in set-up.
      const Clock::time_point build_start = Clock::now();
      const service::CategorySetup* setup =
          core_->catalog().category(category);
      const double build_ms = ms_between(build_start, Clock::now());
      layers.add("cat.build", build_ms);
      if (setup == nullptr) throw std::logic_error("unknown " + category);
      if (category == "dcache") {
        add_dcache_build(layers, setup->benchmark, build_ms);
      }
      const pmu::Machine* machine = timed(layers, "pmu.machine", false, [&] {
        return core_->catalog().machine(setup->default_machine);
      });
      if (machine == nullptr) throw std::logic_error("unknown machine");

      const core::PipelineResult collected = core::run_pipeline(
          *machine, setup->benchmark, setup->signatures, setup->options);
      for (const obs::StageTiming& stage : collected.stage_timings) {
        add_stage(layers, stage.name,
                  static_cast<double>(stage.wall_ns) / 1e6, false);
      }
      // What `catalyst analyze` prints for this category.
      const Expected& want = expected_.at(category);
      const std::string got =
          want.title.empty()
              ? service::render_result(collected)
              : core::format_metric_table(want.title, collected.metrics,
                                          /*rounded=*/true);
      if (got != want.text) {
        throw std::runtime_error(
            category + " output differs from its " +
            (want.title.empty() ? "reference rendering" : "golden table"));
      }
      // The archive a user saved with `catalyst collect`.
      const std::string json = core::save_archive(
          core::make_archive(*machine, setup->benchmark, collected));

      const core::MeasurementArchive archive = timed(
          layers, "io.load", false, [&] { return core::load_archive(json); });
      layers.add("io.load_bytes", static_cast<double>(json.size()));
      const core::PipelineResult replayed =
          core::analyze_archive(archive, setup->signatures, setup->options);
      Item item;
      item.reference = timed(layers, "report.render", false, [&] {
        return service::render_result(replayed);
      });

      item.submit_frame = wire::encode_frame(
          wire::FrameType::submit,
          wire::encode_submit(
              service::packed_submit_from_archive(archive, category)));
      round_bytes_ += item.submit_frame.size();
      items_.emplace(category, std::move(item));
    }
    client_ = std::make_unique<Client>(*core_, clock_);

    // One untimed round through the service warms the request path.
    Layers discard;
    const OpResult warm = op(discard, false);
    if (!warm.ok) throw std::runtime_error("warm-up round: " + warm.failure);
  }

  OpResult op(Layers& layers, bool traced) override {
    client_->rotate_if_needed(round_bytes_);
    if (traced) obs::Tracer::instance().reset();
    std::vector<std::pair<std::string, std::string>> results;
    OpResult out;
    const auto fail = [&out](std::string why) {
      if (out.ok) out.failure = std::move(why);
      out.ok = false;
    };

    const Clock::time_point start = Clock::now();
    for (const std::string& category :
         seeds_.shuffled(service::category_names())) {
      const Item& item = items_.at(category);
      const Clock::time_point t0 = Clock::now();
      const wire::Frame accepted = client_->exchange(item.submit_frame);
      const Clock::time_point t1 = Clock::now();
      layers.add("service.submit", ms_between(t0, t1), true);
      layers.add("service.submit_bytes",
                 static_cast<double>(item.submit_frame.size()));
      if (accepted.type != wire::FrameType::accepted) {
        // ERROR and RETRY_AFTER alike fail the op; nothing is retried.
        fail(category + ": SUBMIT answered with " +
             wire::to_string(accepted.type));
        continue;
      }
      wire::Get accepted_payload(accepted.payload);
      const std::uint64_t request_id = accepted_payload.u64();

      const Clock::time_point t2 = Clock::now();
      core_->run_one();
      const Clock::time_point t3 = Clock::now();
      std::string poll_payload;
      wire::put_u64(poll_payload, request_id);
      const wire::Frame reply = client_->exchange(
          wire::encode_frame(wire::FrameType::poll, poll_payload));
      std::string text;
      if (reply.type == wire::FrameType::result) {
        wire::Get result_payload(reply.payload);
        result_payload.u64();
        text = result_payload.string();
      }
      const Clock::time_point t4 = Clock::now();
      layers.add("service.queue_wait", ms_between(t1, t2), true);
      layers.add("service.execute", ms_between(t2, t3), true);
      layers.add("service.poll", ms_between(t3, t4), true);
      layers.add("category." + category, ms_between(t0, t4));
      if (reply.type != wire::FrameType::result) {
        fail(category + ": POLL answered with " +
             wire::to_string(reply.type));
        continue;
      }
      results.emplace_back(category, std::move(text));
    }
    out.ms = ms_between(start, Clock::now());

    if (traced) harvest_spans(layers);
    for (const auto& [category, text] : results) {
      if (text != items_.at(category).reference) {
        fail(category + ": RESULT differs from the in-process rendering");
      }
    }
    return out;
  }

  int analyses_per_op() const override {
    return static_cast<int>(service::category_names().size());
  }

 private:
  /// The analysis stages run inside ServiceCore::run_one, out of the
  /// client's reach; their existing "stage.*" spans split service.execute.
  static void harvest_spans(Layers& layers) {
    for (const obs::SpanRecord& span :
         obs::Tracer::instance().buffer().snapshot()) {
      const std::string_view name(span.name);
      if (name.substr(0, 6) != "stage.") continue;
      add_stage(layers, std::string(name.substr(6)),
                static_cast<double>(span.end_ns - span.start_ns) / 1e6,
                /*leaf=*/false);
    }
  }

  SeedStream seeds_;
  std::map<std::string, Expected> expected_;
  faults::RealClock clock_;
  std::unique_ptr<service::ServiceCore> core_;
  std::unique_ptr<Client> client_;
  std::map<std::string, Item> items_;
  std::uint64_t round_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_service_packed(const WorkloadContext& ctx) {
  return std::make_unique<ServicePacked>(ctx);
}

}  // namespace perfbench
