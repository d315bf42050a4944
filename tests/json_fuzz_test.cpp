// Fuzz harness for the json library and the measurement-archive loaders.
//
// Three seeded generators, 50k+ total iterations in the default run:
//   * random bytes      -> json::parse must return a Value or throw
//                          JsonError -- never crash, never throw anything
//                          else;
//   * structure-aware   -> byte-level mutations (truncate / flip / insert /
//     archive mutations    delete / splice) of valid v1 and v2 measurement
//                          archives -> load_archive must produce an archive
//                          or throw one of its documented error types;
//   * random documents  -> parse(dump(v)) round-trips every generated
//                          Value exactly (doubles and 64-bit integers).
//
// Any failure prints the offending input as a hex dump plus the
// CATALYST_SEED replay banner (seed_util.hpp); CATALYST_SEED=<n> re-runs
// exactly that input.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "core/io.hpp"
#include "json/json.hpp"
#include "linalg/matrix.hpp"
#include "seed_util.hpp"

namespace catalyst::core {
namespace {

std::string hex_dump(const std::string& bytes) {
  std::ostringstream out;
  out << bytes.size() << " bytes:\n";
  for (std::size_t row = 0; row < bytes.size(); row += 16) {
    char offset[16];
    std::snprintf(offset, sizeof offset, "%06zx  ", row);
    out << offset;
    for (std::size_t i = row; i < row + 16; ++i) {
      if (i < bytes.size()) {
        char hex[8];
        std::snprintf(hex, sizeof hex, "%02x ",
                      static_cast<unsigned char>(bytes[i]));
        out << hex;
      } else {
        out << "   ";
      }
    }
    out << " |";
    for (std::size_t i = row; i < row + 16 && i < bytes.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(bytes[i]);
      out << (std::isprint(c) ? static_cast<char>(c) : '.');
    }
    out << "|\n";
  }
  return out.str();
}

// Byte palette biased toward JSON-significant characters so random inputs
// reach deep into the parser instead of failing on byte one.
std::string random_bytes(std::mt19937_64& rng) {
  static constexpr char kPalette[] =
      "{}[]\",:.0123456789-+eE \t\n\\/tfnu"
      "truefalsenull\"\\u00ff";
  std::uniform_int_distribution<std::size_t> len_dist(0, 96);
  std::uniform_int_distribution<int> mode_dist(0, 3);
  std::uniform_int_distribution<int> palette_dist(
      0, sizeof kPalette - 2);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::string out;
  const std::size_t len = len_dist(rng);
  for (std::size_t i = 0; i < len; ++i) {
    // Mostly palette bytes, sometimes arbitrary ones (embedded NUL, high
    // bit, control characters).
    if (mode_dist(rng) != 0) {
      out.push_back(kPalette[palette_dist(rng)]);
    } else {
      out.push_back(static_cast<char>(byte_dist(rng)));
    }
  }
  return out;
}

std::string mutate(const std::string& doc, std::mt19937_64& rng) {
  std::string out = doc;
  std::uniform_int_distribution<int> op_dist(0, 4);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const int mutations = 1 + static_cast<int>(rng() % 4);
  for (int m = 0; m < mutations && !out.empty(); ++m) {
    std::uniform_int_distribution<std::size_t> pos_dist(0, out.size() - 1);
    const std::size_t pos = pos_dist(rng);
    switch (op_dist(rng)) {
      case 0:  // truncate
        out.resize(pos);
        break;
      case 1:  // flip one byte
        out[pos] = static_cast<char>(byte_dist(rng));
        break;
      case 2:  // insert a random byte
        out.insert(pos, 1, static_cast<char>(byte_dist(rng)));
        break;
      case 3:  // delete a short span
        out.erase(pos, 1 + rng() % 8);
        break;
      default: {  // splice: duplicate a short span somewhere else
        const std::size_t span = 1 + rng() % 12;
        out.insert(pos_dist(rng) % (out.size() + 1),
                   out.substr(pos, span));
        break;
      }
    }
  }
  return out;
}

/// A well-formed v1 measurement archive (built by hand: the fuzz target is
/// the LOADER, so no pipeline run is needed).
std::string base_archive_v1() {
  MeasurementArchive archive;
  archive.format_version = "catalyst-measurements-v1";
  archive.machine_name = "fuzz-machine";
  archive.benchmark_name = "fuzz-bench";
  archive.slot_names = {"s0", "s1", "s2"};
  archive.basis_labels = {"D0", "D1"};
  archive.expectation = linalg::Matrix(3, 2, 0.0);
  for (linalg::index_t r = 0; r < 3; ++r) {
    for (linalg::index_t c = 0; c < 2; ++c) {
      archive.expectation(r, c) = static_cast<double>(2 * r + c + 1);
    }
  }
  archive.event_names = {"EV_A", "EV_B"};
  archive.measurements = {
      {{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}},
      {{4.0, 5.0, 6.0}, {4.0, 5.5, 6.0}},
  };
  return save_archive(archive, 2);
}

std::string base_archive_v2() {
  MeasurementArchive archive = load_archive(base_archive_v1());
  archive.format_version.clear();  // let the writer pick v2
  archive.quarantined = {"EV_Q"};
  return save_archive(archive, 2);
}

/// A v2 archive carrying a sample trace (the sampling-mode payload).
std::string base_archive_sampled() {
  MeasurementArchive archive = load_archive(base_archive_v1());
  archive.format_version.clear();
  archive.collection_mode = vpapi::CollectionMode::strobed;
  vpapi::SampleTrace trace;
  trace.mode = vpapi::CollectionMode::strobed;
  trace.schedule.kernel_span_ns = 1000;
  trace.schedule.period_ns = 300;
  trace.schedule.short_period_ns = 100;
  trace.kernels = 3;
  vpapi::RunTrace run;
  run.run_id = 1;
  run.events = {"EV_A", "EV_B"};
  run.samples = {{300, {1.0, 2.0}}, {400, {2.0, 3.0}}, {3000, {9.0, 9.0}}};
  trace.runs.push_back(run);
  archive.sample_trace = std::move(trace);
  return save_archive(archive, 2);
}

/// Random JSON document generator for the round-trip property.
json::Value random_value(std::mt19937_64& rng, int depth) {
  std::uniform_int_distribution<int> type_dist(0, depth > 2 ? 3 : 5);
  std::uniform_int_distribution<int> size_dist(0, 4);
  std::uniform_real_distribution<double> num_dist(-1e6, 1e6);
  switch (type_dist(rng)) {
    case 0: return json::Value();
    case 1: return json::Value(rng() % 2 == 0);
    case 2:  // a double, or an exact integer over the full 64-bit range
      switch (rng() % 3) {
        case 0: return json::Value(num_dist(rng));
        case 1: return json::Value(static_cast<std::uint64_t>(rng()));
        default: return json::Value(static_cast<std::int64_t>(rng()));
      }
    case 3: {
      std::string s;
      const std::size_t n = rng() % 12;
      for (std::size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(' ' + rng() % 95));
      }
      return json::Value(std::move(s));
    }
    case 4: {
      json::Value arr = json::Value::array();
      const int n = size_dist(rng);
      for (int i = 0; i < n; ++i) arr.push_back(random_value(rng, depth + 1));
      return arr;
    }
    default: {
      json::Value obj = json::Value::object();
      const int n = size_dist(rng);
      for (int i = 0; i < n; ++i) {
        obj["k" + std::to_string(rng() % 16)] = random_value(rng, depth + 1);
      }
      return obj;
    }
  }
}

TEST(JsonFuzz, RandomBytesNeverCrashTheParser) {
  for (const std::uint64_t seed : testing::sweep_seeds(1, 50000)) {
    std::mt19937_64 rng(seed);
    const std::string input = random_bytes(rng);
    try {
      const json::Value value = json::parse(input);
      (void)json::dump(value);  // whatever parsed must also serialize
    } catch (const json::JsonError&) {
      // Documented failure mode.
    } catch (const std::exception& e) {
      FAIL() << testing::seed_banner(seed) << "json::parse threw "
             << e.what() << " (not a JsonError) on input\n"
             << hex_dump(input);
    }
  }
}

TEST(JsonFuzz, MutatedArchivesNeverCrashTheLoader) {
  const std::string bases[] = {base_archive_v1(), base_archive_v2(),
                               base_archive_sampled()};
  for (const std::uint64_t seed : testing::sweep_seeds(1, 6000)) {
    std::mt19937_64 rng(seed);
    const std::string input = mutate(bases[seed % 3], rng);
    try {
      const MeasurementArchive archive = load_archive(input);
      EXPECT_EQ(archive.event_names.size(), archive.measurements.size())
          << testing::seed_banner(seed) << hex_dump(input);
    } catch (const json::JsonError&) {
      // ArchiveError derives from JsonError; both are documented.
    } catch (const std::invalid_argument&) {
      // Documented for version/shape problems in well-formed JSON.
    } catch (const std::exception& e) {
      FAIL() << testing::seed_banner(seed) << "load_archive threw "
             << e.what() << " (undocumented type) on input\n"
             << hex_dump(input);
    }
  }
}

TEST(JsonFuzz, MutatedSampleTraceFieldsFailTypedNeverCrash) {
  // Structure-aware mutations aimed at the sample-trace payload: instead of
  // flipping bytes, rewrite the semantic fields the codec validates (mode
  // string, schedule spans, sample widths/timestamps, container types) and
  // require a typed rejection or a successful load -- never a crash, never
  // an undocumented exception type.
  const json::Value base = json::parse(base_archive_sampled());

  auto mk_sample = [](json::Value t, std::initializer_list<double> vals) {
    json::Value js = json::Value::object();
    js["t"] = std::move(t);
    json::Value arr = json::Value::array();
    for (const double x : vals) arr.push_back(x);
    js["values"] = std::move(arr);
    return js;
  };
  auto mk_schedule = [](json::Value span, json::Value period,
                        json::Value short_period, json::Value dither) {
    json::Value s = json::Value::object();
    s["kernel_span_ns"] = std::move(span);
    s["period_ns"] = std::move(period);
    s["short_period_ns"] = std::move(short_period);
    s["dither"] = std::move(dither);
    return s;
  };
  auto mk_trace = [&](json::Value mode, json::Value schedule, bool two_events,
                      json::Value samples) {
    json::Value t = json::Value::object();
    t["mode"] = std::move(mode);
    t["schedule"] = std::move(schedule);
    t["kernels"] = 3;
    json::Value run = json::Value::object();
    run["repetition"] = 0;
    run["run_id"] = 1;
    json::Value events = json::Value::array();
    events.push_back("EV_A");
    if (two_events) events.push_back("EV_B");
    run["events"] = std::move(events);
    run["samples"] = std::move(samples);
    json::Value runs = json::Value::array();
    runs.push_back(std::move(run));
    t["runs"] = std::move(runs);
    return t;
  };
  auto ok_schedule = [&] { return mk_schedule(1000, 300, 100, true); };
  auto ok_samples = [&] {
    json::Value s = json::Value::array();
    s.push_back(mk_sample(300, {1.0, 2.0}));
    s.push_back(mk_sample(3000, {9.0, 9.0}));
    return s;
  };

  for (const std::uint64_t seed : testing::sweep_seeds(1, 2000)) {
    std::mt19937_64 rng(seed);
    json::Value doc = base;
    switch (rng() % 12) {
      case 0:  // unknown mode string
        doc["sample_trace"] =
            mk_trace("multiplexed", ok_schedule(), true, ok_samples());
        break;
      case 1:  // archive/trace mode disagreement is legal JSON
        doc["collection_mode"] = std::string("sampling");
        break;
      case 2:  // zero period fails SampleSchedule::validate
        doc["sample_trace"] = mk_trace(
            "strobed", mk_schedule(1000, 0, 100, true), true, ok_samples());
        break;
      case 3:  // short > long fails validate
        doc["sample_trace"] = mk_trace(
            "strobed", mk_schedule(1000, 300, 1e9, true), true, ok_samples());
        break;
      case 4:  // wrong type for a span
        doc["sample_trace"] = mk_trace(
            "strobed", mk_schedule("soon", 300, 100, true), true,
            ok_samples());
        break;
      case 5: {  // sample narrower than the run's event list
        json::Value samples = json::Value::array();
        samples.push_back(mk_sample(300, {}));
        doc["sample_trace"] =
            mk_trace("strobed", ok_schedule(), true, std::move(samples));
        break;
      }
      case 6: {  // sample wider than the run's event list
        json::Value samples = json::Value::array();
        samples.push_back(mk_sample(300, {1.0, 2.0, 7.0}));
        doc["sample_trace"] =
            mk_trace("strobed", ok_schedule(), true, std::move(samples));
        break;
      }
      case 7: {  // negative timestamp (decoder must reject, not cast)
        json::Value samples = json::Value::array();
        samples.push_back(mk_sample(-1.0, {1.0, 2.0}));
        doc["sample_trace"] =
            mk_trace("strobed", ok_schedule(), true, std::move(samples));
        break;
      }
      case 8:  // samples not an array
        doc["sample_trace"] =
            mk_trace("strobed", ok_schedule(), true, "none");
        break;
      case 9:  // missing schedule (and everything else) entirely
        doc["sample_trace"] = json::Value::object();
        break;
      case 10:  // events list vanishes while samples stay wide
        doc["sample_trace"] =
            mk_trace("strobed", ok_schedule(), false, ok_samples());
        break;
      default:  // dither as a number instead of a bool
        doc["sample_trace"] = mk_trace(
            "strobed", mk_schedule(1000, 300, 100, 1.0), true, ok_samples());
        break;
    }
    const std::string input = json::dump(doc, rng() % 2 == 0 ? 0 : 2);
    try {
      const MeasurementArchive archive = load_archive(input);
      if (archive.sample_trace.has_value()) {
        for (const auto& run : archive.sample_trace->runs) {
          for (const auto& sample : run.samples) {
            EXPECT_EQ(sample.values.size(), run.events.size())
                << testing::seed_banner(seed) << hex_dump(input);
          }
        }
      }
    } catch (const json::JsonError&) {
      // Documented: type errors surface as JsonError.
    } catch (const std::invalid_argument&) {
      // Documented: mode/shape/schedule validation.
    } catch (const std::exception& e) {
      FAIL() << testing::seed_banner(seed) << "load_archive threw "
             << e.what() << " (undocumented type) on input\n"
             << hex_dump(input);
    }
  }
}

TEST(JsonFuzz, GeneratedDocumentsRoundTripExactly) {
  for (const std::uint64_t seed : testing::sweep_seeds(1, 2000)) {
    std::mt19937_64 rng(seed);
    const json::Value value = random_value(rng, 0);
    for (const int indent : {0, 2}) {
      const std::string text = json::dump(value, indent);
      try {
        EXPECT_TRUE(json::parse(text) == value)
            << testing::seed_banner(seed) << "round-trip mismatch for\n"
            << hex_dump(text);
      } catch (const std::exception& e) {
        FAIL() << testing::seed_banner(seed) << "parse of dump output threw "
               << e.what() << "\n"
               << hex_dump(text);
      }
    }
  }
}

}  // namespace
}  // namespace catalyst::core
