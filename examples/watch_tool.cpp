// Offline/near-line operator dashboard: replay or follow a telemetry JSONL
// stream (`--telemetry-out=` from any example CLI) through the same
// renderer `--live` uses, so the offline view is pixel-identical to the
// in-process one.
//
// Usage:
//   watch_tool telemetry.jsonl                 # animated replay, then exit
//   watch_tool telemetry.jsonl --follow        # tail -f: repaint as a
//                                              #   concurrent run appends
//   watch_tool telemetry.jsonl --no-ansi       # final frame only, no
//                                              #   escape codes (for pipes)
// Options:
//   --delay-ms=25    replay pacing between frames (0 = final frame only)
//   --poll-ms=250    --follow polling interval for new lines
//   --ring=N         sparkline history depth (snapshots, default 256)
//   --width=N        sparkline columns (default 32)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "obs/telemetry/dashboard.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "support/cli.hpp"

namespace {

struct Watcher {
  easched::obs::SnapshotRing ring;
  easched::obs::DashboardOptions options;
  std::uint64_t parsed = 0;
  std::uint64_t skipped = 0;

  explicit Watcher(std::size_t depth) : ring(depth) {}

  /// Returns true when the line carried a snapshot (ring updated).
  bool consume(const std::string& line) {
    if (line.empty()) return false;
    easched::obs::TelemetrySnapshot snap;
    if (!easched::obs::parse_snapshot_jsonl(line, &snap)) {
      ++skipped;
      return false;
    }
    ++parsed;
    ring.push(std::move(snap));
    return true;
  }

  void paint(std::ostream& os) const {
    easched::obs::render_dashboard(os, ring, options);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const bool follow = args.get_bool("follow", false);
  const bool ansi = !args.get_bool("no-ansi", false);
  const int delay_ms = args.get_int("delay-ms", 25);
  const int poll_ms = args.get_int("poll-ms", 250);
  const int ring_depth = args.get_int("ring", 256);
  const int width = args.get_int("width", 32);
  args.warn_unrecognized();

  if (args.positional().size() != 1 || ring_depth <= 0 || width <= 0 ||
      delay_ms < 0 || poll_ms <= 0) {
    std::fprintf(stderr,
                 "watch_tool <telemetry.jsonl> [--follow] [--no-ansi]\n"
                 "           [--delay-ms=25] [--poll-ms=250] [--ring=256] "
                 "[--width=32]\n");
    return 2;
  }
  const std::string path = args.positional().front();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }

  Watcher watcher(static_cast<std::size_t>(ring_depth));
  watcher.options.spark_width = static_cast<std::size_t>(width);
  watcher.options.ansi = ansi;

  // Replay what the file already holds. Animation only makes sense on a
  // repaint-in-place terminal; --no-ansi or --delay-ms=0 renders the final
  // state once.
  const bool animate = ansi && delay_ms > 0 && !follow;
  std::string line;
  std::string pending;  // follow mode: the unterminated tail of the file
  while (std::getline(in, line)) {
    if (follow && in.eof()) {
      pending = line;
      break;
    }
    if (watcher.consume(line) && animate) {
      watcher.paint(std::cout);
      std::cout.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }

  if (!follow) {
    if (watcher.parsed == 0) {
      std::fprintf(stderr, "%s: no telemetry snapshots found\n",
                   path.c_str());
      return 1;
    }
    if (!animate) watcher.paint(std::cout);
    if (watcher.skipped > 0) {
      std::fprintf(stderr, "watch_tool: skipped %llu unparseable line(s)\n",
                   static_cast<unsigned long long>(watcher.skipped));
    }
    return 0;
  }

  // Follow mode: getline returns whatever the writer has flushed, which
  // may end inside a line. Only a newline-terminated line is parsed; an
  // unterminated tail is kept until the rest of it arrives.
  if (watcher.parsed > 0) {
    watcher.paint(std::cout);
    std::cout.flush();
  }
  for (;;) {
    if (std::getline(in, line)) {
      pending += line;
      if (!in.eof()) {
        if (watcher.consume(pending)) {
          watcher.paint(std::cout);
          std::cout.flush();
        }
        pending.clear();
        continue;
      }
    }
    in.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}
