// One repetition of one benchmark workload, driven through the public
// entry points the `ilat` CLI uses (campaign::RunCampaign with the journal
// wired through on_result, RunSpecSession + obs::TraceToChromeJson).
//
//   ilat_perfbench --workload=NAME --spec=FILE --work=DIR [--jobs=N]
//                  [--t0-ns=NS] [--trace]
//
// The workload's inputs arrive as a campaign spec file that run.py
// generates from the benchmark seed.  The driver prints one JSON line of
// raw measurements; run.py launches it once per repetition (so set-up and
// peak RSS are per process), summarises the repetitions and cross-checks
// the digests against `ilat --campaign`.
//
// Without --trace no HostProfiler is installed and no trace sink exists
// (except in traced_word, where tracing is the workload): those are the
// headline numbers.  With --trace the HostProfiler is installed and the
// driver's own spans around each public call are reported; those numbers
// are for attribution only.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/campaign/aggregate.h"
#include "src/campaign/journal.h"
#include "src/campaign/runner.h"
#include "src/campaign/spec.h"
#include "src/core/catalog.h"
#include "src/obs/jsonout.h"
#include "src/obs/profiler.h"
#include "src/obs/trace_export.h"

namespace ilat {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  std::string spec_path;
  std::string work_dir;
  int jobs = 2;
  bool trace = false;
  // CLOCK_MONOTONIC nanoseconds at which the launcher spawned this
  // process: set-up is measured from there, so it includes exec and
  // dynamic loading.  0 = measure from main().
  std::int64_t t0_ns = 0;
};

// What one repetition measured; printed as one JSON line.
struct Rep {
  double setup_s = 0.0;   // process start -> first cell can start
  double window_s = 0.0;  // first cell start -> aggregate JSON+CSV rendered
  std::size_t cells = 0;
  std::size_t failed = 0;
  double sim_ms = 0.0;              // sum of run_end over cells
  std::vector<double> cell_ms;      // per-cell host wall time
  double peak_rss_mb = 0.0;
  std::uint64_t digest = 0;         // aggregate JSON (events for traced_word)
  double resume_s = 0.0;            // journal_resume phase 2
  double trace_bytes = 0.0;         // Chrome JSON bytes, summed over sessions
  double busy_frac = 0.0;           // sum wall_s / (jobs x RunCampaign wall)
  double write_bytes = 0.0;         // /proc/self/io wchar delta over the run
  std::map<std::string, double> spans_ms;  // driver spans around public calls
  std::vector<double> fold_us;             // on_result -> on_cell gaps
  obs::HostProfiler profiler;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t DigestEvents(const std::vector<EventRecord>& events, std::uint64_t h) {
  for (const EventRecord& e : events) {
    const std::string line =
        std::to_string(e.msg_seq) + " " + std::to_string(static_cast<int>(e.type)) + " " +
        std::to_string(e.param) + " " + e.label + " " + std::to_string(e.start) + " " +
        std::to_string(e.retrieved) + " " + std::to_string(e.end) + " " +
        std::to_string(e.busy) + " " + std::to_string(e.io_wait) + " " +
        std::to_string(e.retry_wait) + " " + std::to_string(e.wall) + "\n";
    h = Fnv1a(line, h);
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Bytes this process has passed to write(2) and friends so far.
double WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (io >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0.0;
}

RunSpec SpecForCell(const campaign::CampaignCell& cell) {
  RunSpec rs;
  rs.os = cell.os;
  rs.app = cell.app;
  rs.workload = cell.workload;
  rs.driver = cell.driver;
  rs.seed = cell.seed;
  rs.workload_seed = cell.workload_seed;
  rs.params = cell.params;
  rs.faults = cell.faults;
  return rs;
}

// paper_matrix, server_sweep and journal_resume: one campaign, wired the
// way src/tools/cli.cc wires it.  journal_resume adds the journal on the
// write path and then resumes from the finished journal.
bool RunCampaignRep(const Options& o, Clock::time_point t0, Rep* rep, std::string* error) {
  campaign::CampaignSpec spec;
  if (!campaign::LoadCampaignSpec(o.spec_path, &spec, error)) {
    return false;
  }
  const std::size_t total = spec.ExpandCells().size();
  const bool journaled = o.workload == "journal_resume";
  const std::string journal_path = o.work_dir + "/journal.jsonl";

  campaign::JournalWriter journal;
  if (journaled) {
    journal.Open(journal_path, spec, total, 0, 1);
    if (!journal.Flush(error)) {
      return false;
    }
  }
  campaign::CampaignRunOptions run_options;
  run_options.jobs = o.jobs;
  if (o.trace) {
    run_options.profiler = &rep->profiler;
  }
  bool journal_failed = false;
  Clock::time_point result_done;
  if (journaled || o.trace) {
    run_options.on_result = [&](const campaign::CellResult& r) {
      if (journaled) {
        const Clock::time_point t = Clock::now();
        if (!journal_failed && !journal.Add(r, error)) {
          journal_failed = true;
        }
        rep->spans_ms["campaign.journal_add"] += MsSince(t);
      }
      if (o.trace) {
        result_done = Clock::now();
      }
    };
  }
  if (o.trace) {
    run_options.on_cell = [&](const campaign::CellResult&) {
      rep->fold_us.push_back(MsSince(result_done) * 1e3);
    };
  }

  campaign::CampaignAggregate aggregate(spec.name, spec.campaign_seed, spec.threshold_ms);
  campaign::CampaignRunStats stats;
  const double written_before = WrittenBytes();
  const Clock::time_point start = Clock::now();
  rep->setup_s = std::chrono::duration<double>(start - t0).count();
  if (!campaign::RunCampaign(spec, run_options, &aggregate, &stats, error)) {
    return false;
  }
  if (journal_failed) {
    return false;
  }
  const Clock::time_point render_start = Clock::now();
  const std::string json = aggregate.ToJson();
  const std::string csv = aggregate.ToCellsCsv();
  rep->spans_ms["campaign.render"] = MsSince(render_start);
  rep->window_s = std::chrono::duration<double>(Clock::now() - start).count();
  rep->write_bytes = WrittenBytes() - written_before;
  rep->peak_rss_mb = PeakRssMb();
  rep->digest = Fnv1a(json);

  double busy_s = 0.0;
  for (const campaign::CellResult& r : aggregate.cells()) {
    rep->cell_ms.push_back(r.wall_s * 1e3);
    busy_s += r.wall_s;
    if (r.timed_out) {
      ++rep->failed;  // quarantined by the watchdog
    }
  }
  rep->cells = aggregate.cells().size();
  rep->busy_frac = stats.wall_seconds > 0.0 ? busy_s / (stats.jobs * stats.wall_seconds) : 0.0;
  const auto& entries = aggregate.metrics_accumulator().entries();
  const auto run_end = entries.find("session.run_end_s");
  rep->sim_ms = run_end == entries.end() ? 0.0 : run_end->second.sum * 1e3;

  if (!journaled) {
    return true;
  }
  // Phase 2, the read path: resume from the finished journal as
  // `ilat --campaign=SPEC --resume=FILE` does, into a fresh aggregate.
  const Clock::time_point resume_start = Clock::now();
  campaign::JournalData data;
  if (!campaign::LoadJournal(journal_path, &data, error)) {
    return false;
  }
  rep->spans_ms["campaign.load_journal"] = MsSince(resume_start);
  campaign::JournalWriter reopened;
  reopened.Open(journal_path, spec, total, 0, 1);
  reopened.SeedLines(data.raw_lines);
  if (!reopened.Flush(error)) {
    return false;
  }
  campaign::CampaignRunOptions resume_options;
  resume_options.jobs = o.jobs;
  resume_options.completed = &data.cells;
  if (o.trace) {
    resume_options.profiler = &rep->profiler;
  }
  campaign::CampaignAggregate resumed(spec.name, spec.campaign_seed, spec.threshold_ms);
  const Clock::time_point replay_start = Clock::now();
  if (!campaign::RunCampaign(spec, resume_options, &resumed, nullptr, error)) {
    return false;
  }
  rep->spans_ms["campaign.replay"] = MsSince(replay_start);
  const bool same = resumed.ToJson() == json && resumed.ToCellsCsv() == csv;
  rep->resume_s = std::chrono::duration<double>(Clock::now() - resume_start).count();
  if (!same) {
    rep->failed = rep->cells;  // the resumed aggregate must be the live one
  }
  return true;
}

// traced_word: the spec's cells run serially as traced sessions, each
// exported to Chrome JSON.  Afterwards every session runs again untraced
// and its events must equal the traced session's.
bool RunTracedRep(const Options& o, Clock::time_point t0, Rep* rep, std::string* error) {
  campaign::CampaignSpec spec;
  if (!campaign::LoadCampaignSpec(o.spec_path, &spec, error)) {
    return false;
  }
  std::vector<RunSpec> sessions;
  for (const campaign::CampaignCell& cell : spec.ExpandCells()) {
    sessions.push_back(SpecForCell(cell));
  }
  if (sessions.empty()) {
    *error = "spec expands to no sessions";
    return false;
  }
  std::vector<std::uint64_t> traced_digests;

  // Warm-up, counted in set-up: the first traced session of a process
  // pays ~60% extra for faulting in fresh heap pages for the trace and
  // its JSON, which would otherwise land on every repetition's first cell.
  {
    RunSpec rs = sessions.front();
    rs.collect_trace = true;
    SessionResult r;
    if (!RunSpecSession(rs, &r, error) || r.trace_data == nullptr) {
      return false;
    }
    obs::TraceToChromeJson(*r.trace_data);
  }

  const Clock::time_point start = Clock::now();
  rep->setup_s = std::chrono::duration<double>(start - t0).count();
  if (o.trace) {
    obs::HostProfiler::Install(&rep->profiler);
  }
  std::uint64_t digest = kFnvOffset;
  for (RunSpec rs : sessions) {
    rs.collect_trace = true;
    const Clock::time_point cell_start = Clock::now();
    SessionResult r;
    if (!RunSpecSession(rs, &r, error) || r.trace_data == nullptr) {
      obs::HostProfiler::Uninstall();
      return false;
    }
    const Clock::time_point export_start = Clock::now();
    const std::string chrome = obs::TraceToChromeJson(*r.trace_data);
    rep->spans_ms["trace.chrome_json"] += MsSince(export_start);
    rep->trace_bytes += static_cast<double>(chrome.size());
    rep->sim_ms += CyclesToMilliseconds(r.run_end);
    traced_digests.push_back(DigestEvents(r.events, kFnvOffset));
    digest = DigestEvents(r.events, digest);
    rep->cell_ms.push_back(MsSince(cell_start));
  }
  obs::HostProfiler::Uninstall();
  rep->window_s = std::chrono::duration<double>(Clock::now() - start).count();
  rep->peak_rss_mb = PeakRssMb();
  rep->cells = sessions.size();
  rep->digest = digest;

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    SessionResult r;
    if (!RunSpecSession(sessions[i], &r, error)) {
      return false;
    }
    if (DigestEvents(r.events, kFnvOffset) != traced_digests[i]) {
      ++rep->failed;
    }
  }
  return true;
}

std::string RepToJson(const Options& o, const Rep& rep) {
  using obs::NumToJson;
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(rep.digest));
  std::string out = "{\"workload\": \"" + obs::EscapeJson(o.workload) + "\"";
  out += ", \"setup_s\": " + NumToJson(rep.setup_s);
  out += ", \"window_s\": " + NumToJson(rep.window_s);
  out += ", \"cells\": " + std::to_string(rep.cells);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"sim_ms\": " + NumToJson(rep.sim_ms);
  out += ", \"peak_rss_mb\": " + NumToJson(rep.peak_rss_mb);
  out += ", \"digest\": \"" + std::string(digest) + "\"";
  out += ", \"resume_s\": " + NumToJson(rep.resume_s);
  out += ", \"trace_bytes\": " + NumToJson(rep.trace_bytes);
  out += ", \"busy_frac\": " + NumToJson(rep.busy_frac);
  out += ", \"write_bytes\": " + NumToJson(rep.write_bytes);
  out += ", \"cell_ms\": [";
  for (std::size_t i = 0; i < rep.cell_ms.size(); ++i) {
    out += (i > 0 ? ", " : "") + NumToJson(rep.cell_ms[i]);
  }
  out += "], \"fold_us\": [";
  for (std::size_t i = 0; i < rep.fold_us.size(); ++i) {
    out += (i > 0 ? ", " : "") + NumToJson(rep.fold_us[i]);
  }
  out += "], \"spans_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : rep.spans_ms) {
    out += (first ? "\"" : ", \"") + name + "\": " + NumToJson(ms);
    first = false;
  }
  out += "}, \"probes\": {";
  for (int i = 0; i < obs::kHostProbeCount; ++i) {
    const auto probe = static_cast<obs::HostProbe>(i);
    const obs::HostProbeStats& s = rep.profiler.stats(probe);
    out += std::string(i > 0 ? ", \"" : "\"") + obs::HostProbeInfoFor(probe).name +
           "\": {\"count\": " + std::to_string(s.count) +
           ", \"ms\": " + NumToJson(static_cast<double>(s.total_ns) / 1e6) +
           ", \"nested\": " + (obs::HostProbeInfoFor(probe).top_level ? "false" : "true") + "}";
  }
  out += "}}";
  return out;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::char_traits<char>::length(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o->workload = v;
    } else if (const char* v = value("--spec=")) {
      o->spec_path = v;
    } else if (const char* v = value("--work=")) {
      o->work_dir = v;
    } else if (const char* v = value("--jobs=")) {
      o->jobs = std::atoi(v);
    } else if (const char* v = value("--t0-ns=")) {
      o->t0_ns = std::atoll(v);
    } else if (arg == "--trace") {
      o->trace = true;
    } else {
      std::fprintf(stderr, "ilat_perfbench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !o->workload.empty() && !o->spec_path.empty() && !o->work_dir.empty() &&
         o->jobs >= 1;
}

}  // namespace
}  // namespace ilat

int main(int argc, char** argv) {
  using ilat::Clock;
  const Clock::time_point main_start = Clock::now();
  ilat::Options o;
  if (!ilat::ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: ilat_perfbench --workload=NAME --spec=FILE --work=DIR [--jobs=N] "
                 "[--t0-ns=NS] [--trace]\n");
    return 2;
  }
  const Clock::time_point t0 =
      o.t0_ns > 0 ? Clock::time_point(std::chrono::nanoseconds(o.t0_ns)) : main_start;
  ilat::Rep rep;
  std::string error;
  bool ok = false;
  if (o.workload == "traced_word") {
    ok = ilat::RunTracedRep(o, t0, &rep, &error);
  } else if (o.workload == "paper_matrix" || o.workload == "server_sweep" ||
             o.workload == "journal_resume") {
    ok = ilat::RunCampaignRep(o, t0, &rep, &error);
  } else {
    error = "unknown workload '" + o.workload + "'";
  }
  if (!ok) {
    std::fprintf(stderr, "ilat_perfbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", ilat::RepToJson(o, rep).c_str());
  return 0;
}
