/// \file ocr_route.cpp
/// \brief Command-line driver for the over-cell routing flows.
///
/// Examples:
///   ocr_route --example ami33                      # proposed flow
///   ocr_route --example ex3 --flow 2layer          # baseline
///   ocr_route --input chip.oclay --svg routed.svg  # your own instance
///   ocr_route --example xerox --partition length=2000
///   ocr_route --example ami33 --save ami33.oclay   # export the instance
///
/// The job flags are the `ocr_served` request keys (io::kJobKnobs) and
/// take the daemon's path: service::spec_from_request ->
/// service::materialize -> service::job_run_options -> flow::run. This
/// file adds only the outputs around the run: report, checks, artifacts,
/// trace, profile, metrics and manifest.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "flow/check.hpp"
#include "flow/run.hpp"
#include "io/job_io.hpp"
#include "io/layout_io.hpp"
#include "io/route_io.hpp"
#include "report/tables.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/manifest.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/str.hpp"
#include "util/trace.hpp"
#include "viz/svg.hpp"

namespace {

using namespace ocr;

void usage() {
  std::puts(
      "usage: ocr_route (--example ami33|xerox|ex3|random[:seed] | "
      "--input FILE)\n"
      "                 [--flow overcell|2layer|4layer|50pct]\n"
      "                 [--partition class|length=<dbu>|allb]\n"
      "                 [--svg FILE] [--save FILE] [--wiring FILE] [--check]\n"
      "                 [--threads N] [--engine-mode sharded]\n"
      "                 [--trace FILE] [--verbose]\n"
      "                 [--profile FILE] [--metrics-json FILE]\n"
      "                 [--manifest FILE]\n"
      "                 [--deadline-ms N] [--net-effort N]\n"
      "                 [--fail-policy abort|degrade|partial] [--faults SPEC]\n"
      "\n"
      "Flows: overcell = the paper's two-level methodology (default);\n"
      "       2layer   = all nets channel-routed on metal1/2;\n"
      "       4layer   = all nets via the multilayer channel router;\n"
      "       50pct    = the paper's optimistic Table-3 area model.\n"
      "Partitions (overcell flow only): class = critical/clock/power nets\n"
      "to level A (default); length=<dbu> = nets with half-perimeter <=\n"
      "dbu to level A; allb = everything over-cell.\n"
      "--threads N routes level B with N engine workers (0 = one per\n"
      "hardware thread; results are identical for any N). N > 1 routes\n"
      "batches of geometrically disjoint nets in parallel (sharded, the\n"
      "only --engine-mode; the retired names speculative and auto are\n"
      "accepted as aliases of it). --trace FILE writes per-net engine\n"
      "trace events as JSON.\n"
      "\n"
      "Observability (docs/OBSERVABILITY.md): --profile FILE writes a\n"
      "Chrome trace-event JSON of stage and engine spans (open it at\n"
      "https://ui.perfetto.dev); --metrics-json FILE dumps the metrics\n"
      "registry snapshot; --manifest FILE writes the run manifest\n"
      "(config + provenance + stage times + metrics + outcome).\n"
      "\n"
      "Robustness: --deadline-ms N cancels the run after N wall-clock ms\n"
      "(cancelled nets are reported unrouted); --net-effort N caps each\n"
      "net's search at N vertex expansions; --fail-policy picks what a\n"
      "failure means: abort = any problem exits 1, degrade (default) =\n"
      "serial re-route -> rip-up -> mark unrouted, partial = mark\n"
      "unrouted immediately. --faults SPEC arms the fault-injection\n"
      "registry (see util/fault.hpp; also via OCR_FAULTS env).\n"
      "Exit codes: 0 = clean, 1 = failed, 2 = usage or an invalid job\n"
      "knob (the ocr_served request checks), 3 = partial.");
}

/// The flags that are not job knobs: what to write and print around
/// the run. The job knobs go through io::job_knob_flags.
struct Outputs {
  std::string svg;
  std::string save;
  std::string wiring;
  std::string trace;
  std::string profile;
  std::string metrics_json;
  bool verbose = false;
  bool check = false;
  bool help = false;
};

void print_metrics(const flow::RunReport& report) {
  const flow::FlowMetrics& m = report.metrics;
  std::printf("flow:              %s\n", m.flow_name.c_str());
  std::printf("instance:          %s\n", m.example_name.c_str());
  std::printf("layout:            %lld x %lld  (area %s)\n",
              static_cast<long long>(m.die_width),
              static_cast<long long>(m.die_height),
              util::with_commas(m.layout_area).c_str());
  std::printf("wire length:       %s dbu\n",
              util::with_commas(m.wire_length).c_str());
  std::printf("vias:              %d\n", m.vias);
  std::printf("channel tracks:    %d\n", m.total_channel_tracks);
  if (m.levelb_nets > 0) {
    std::printf("level A / B nets:  %d / %d\n", m.levela_nets,
                m.levelb_nets);
    std::printf("level B complete:  %.1f%%\n",
                100.0 * m.levelb_completion);
    const engine::EngineStats& e = m.engine;
    std::printf("engine threads:    %lld (%s)\n", e.threads,
                e.threads > 1 ? "sharded" : "serial");
    std::printf("engine vertices:   %s\n",
                util::with_commas(m.levelb_vertices).c_str());
    if (e.threads > 1) {
      std::printf("engine batches:    %lld (%lld batch commits, "
                  "%lld boundary re-routes)\n",
                  e.batches, e.sharded_commits, e.boundary_nets);
      std::printf("engine waste:      %s vertices, %.1f ms search "
                  "(boundary escapes)\n",
                  util::with_commas(e.sharded_wasted_vertices).c_str(),
                  e.sharded_wasted_search_us / 1000.0);
    }
  }
  if (m.peak_rss_kb > 0 || m.tig_grid_bytes > 0) {
    std::printf("memory:            %s KB peak RSS, %s grid bytes\n",
                util::with_commas(m.peak_rss_kb).c_str(),
                util::with_commas(m.tig_grid_bytes).c_str());
  }
  const long long serial_reroutes =
      m.engine.fault_reroutes + m.engine.worker_failures;
  if (serial_reroutes > 0 || m.degrade_ripup_recovered > 0 ||
      m.engine.fault_drops > 0 || m.unrouted_nets > 0 ||
      m.cancelled_nets > 0 || m.budget_nets > 0 ||
      m.engine.pool_task_failures > 0 || m.faults_injected > 0 ||
      report.deadline_fired) {
    std::printf("degradation:       %lld serial re-routes, %d recovered "
                "by rip-up, %lld dropped\n",
                serial_reroutes, m.degrade_ripup_recovered,
                m.engine.fault_drops);
    std::printf("  unrouted nets:   %d (%d cancelled, %d out of budget)\n",
                m.unrouted_nets, m.cancelled_nets, m.budget_nets);
    if (m.faults_injected > 0) {
      std::printf("  faults injected: %lld\n", m.faults_injected);
    }
    if (m.engine.pool_task_failures > 0) {
      std::printf("  task failures:   %lld\n", m.engine.pool_task_failures);
    }
    if (report.deadline_fired) std::puts("  deadline:        fired");
  }
  if (!m.success) {
    std::printf("status:            INCOMPLETE (%zu problems)\n",
                m.problems.size());
    for (std::size_t i = 0; i < m.problems.size() && i < 5; ++i) {
      std::printf("  - %s\n", m.problems[i].c_str());
    }
  } else {
    std::printf("status:            %s\n",
                flow::run_status_name(report.status));
  }
  if (!report.error.ok()) {
    std::printf("error:             %s\n", report.error.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  io::JobRequest request;
  request.faults = "";  // unlike a daemon job, the CLI inherits OCR_FAULTS
  Outputs out;
  std::vector<util::Flag> flags = io::job_knob_flags(request);
  flags.insert(flags.end(), {util::text_flag("--svg", &out.svg),
                             util::text_flag("--save", &out.save),
                             util::text_flag("--wiring", &out.wiring),
                             util::text_flag("--trace", &out.trace),
                             util::text_flag("--profile", &out.profile),
                             util::text_flag("--metrics-json",
                                             &out.metrics_json),
                             util::switch_flag("--verbose", &out.verbose),
                             util::switch_flag("--check", &out.check),
                             util::switch_flag("--help", &out.help),
                             util::switch_flag("-h", &out.help)});
  const util::Status parsed = util::parse_flags(argc, argv, flags);
  if (!parsed.ok() || out.help) {
    if (!parsed.ok()) std::fprintf(stderr, "%s\n", parsed.message().c_str());
    usage();
    return 2;
  }
  const auto spec = service::spec_from_request(request);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().to_string().c_str());
    return 2;
  }
  if (out.verbose) util::set_log_level(util::LogLevel::kInfo);
  const bool overcell = spec->kind == flow::FlowKind::kOverCell;

  util::Profiler& profiler = util::Profiler::global();
  if (!out.profile.empty() || !spec->manifest_path.empty()) {
    profiler.enable();
  }

  // Arm fault injection before the input parse so io.* sites fire too
  // (flow::run re-arms the same spec for the routing stages). Only an
  // invalid OCR_FAULTS spec gets here unchecked: a usage error as well.
  const util::Status armed = service::arm_faults(spec->faults);
  if (!armed.ok()) {
    std::fprintf(stderr, "error: %s\n", armed.to_string().c_str());
    return 2;
  }

  auto job = [&] {
    OCR_SPAN("cli.parse");
    std::vector<std::string> warnings;
    auto materialized = service::materialize(*spec, &warnings);
    for (const std::string& warning : warnings) {
      std::fprintf(stderr, "warning: %s\n", warning.c_str());
    }
    return materialized;
  }();
  if (!job.ok()) {
    std::fprintf(stderr, "error: %s\n", job.status().to_string().c_str());
    return 1;
  }

  if (!out.save.empty()) {
    if (!io::save_layout(job->layout, out.save)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out.save.c_str());
      return 1;
    }
    std::printf("saved instance to %s\n", out.save.c_str());
  }

  util::TraceSink trace;
  trace.set_mirror(profiler.enabled() ? &profiler : nullptr);
  flow::FlowArtifacts artifacts;
  flow::RunOptions ropt = service::job_run_options(*job);
  ropt.artifacts = &artifacts;
  if (!out.trace.empty()) ropt.trace = &trace;

  const flow::RunReport report = flow::run(job->layout, job->partition, ropt);

  // Reporting, checks and artifact writes are one "cli.report" stage. A
  // failure in here overrides the flow's exit code with 1; the
  // observability outputs below are still written so the manifest records
  // what actually happened.
  const std::optional<int> output_failure = [&]() -> std::optional<int> {
    OCR_SPAN("cli.report");
    print_metrics(report);
    if (out.verbose) {
      std::fputs(report::render_metrics_summary(
                     util::MetricsRegistry::global().snapshot())
                     .c_str(),
                 stdout);
    }

    if (!out.trace.empty()) {
      if (!trace.write_json_file(out.trace)) {
        std::fprintf(stderr, "error: cannot write '%s'\n", out.trace.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu trace events)\n", out.trace.c_str(),
                  trace.size());
    }

    if (out.check && overcell) {
      const auto violations = flow::check_over_cell_result(artifacts);
      if (violations.empty()) {
        std::puts("check:             clean (no violations)");
      } else {
        std::printf("check:             %zu violations\n",
                    violations.size());
        for (std::size_t i = 0; i < violations.size() && i < 10; ++i) {
          std::printf("  - %s\n", violations[i].c_str());
        }
        return 1;
      }
    }

    if (!out.wiring.empty() && overcell) {
      if (!io::save_wiring(artifacts.levelb, out.wiring)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     out.wiring.c_str());
        return 1;
      }
      std::printf("wrote %s (level-B wiring)\n", out.wiring.c_str());
    }

    if (!out.svg.empty()) {
      const std::string svg = overcell
                                  ? viz::render_levelb_routing(artifacts)
                                  : viz::render_layout(artifacts.layout);
      if (!viz::write_file(out.svg, svg)) {
        std::fprintf(stderr, "error: cannot write '%s'\n", out.svg.c_str());
        return 1;
      }
      std::printf("wrote %s\n", out.svg.c_str());
    }
    return std::nullopt;
  }();
  const int exit_code = output_failure.value_or(report.exit_code());

  if (!out.metrics_json.empty()) {
    const util::MetricsSnapshot snapshot =
        util::MetricsRegistry::global().snapshot();
    if (!snapshot.write_json_file(out.metrics_json)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   out.metrics_json.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu counters, %zu gauges, %zu histograms)\n",
                out.metrics_json.c_str(), snapshot.counters.size(),
                snapshot.gauges.size(), snapshot.histograms.size());
  }

  if (!out.profile.empty()) {
    if (!profiler.write_chrome_json(out.profile)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out.profile.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu profile records; open at "
                "https://ui.perfetto.dev)\n",
                out.profile.c_str(), profiler.records().size());
  }

  if (!spec->manifest_path.empty()) {
    util::RunManifest manifest("ocr_route");
    service::add_job_config(manifest, *spec);
    manifest.add_outcome("status", flow::run_status_name(report.status));
    manifest.add_outcome("exit_code", exit_code);
    manifest.add_outcome("deadline_fired", report.deadline_fired);
    manifest.add_outcome(
        "problems", static_cast<long long>(report.metrics.problems.size()));
    manifest.capture_stages(profiler);
    manifest.capture_metrics(util::MetricsRegistry::global());
    if (!manifest.write_json_file(spec->manifest_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   spec->manifest_path.c_str());
      return 1;
    }
    std::printf("wrote %s (run manifest)\n", spec->manifest_path.c_str());
  }

  return exit_code;
}
