// Shared scaffolding for the trace-* stage tools.  Every stage reads one
// binary seo-trace stream (a file, or '-' = stdin), writes its report to
// stdout or --output, and with --passthrough copies the validated input
// bytes to stdout — so stages chain like classic unix filters:
//
//   sweep --smoke --trace-out - --output grid.csv |
//     trace-safety-audit --passthrough -o audit.csv |
//     trace-energy-report --passthrough -o energy.csv |
//     trace-export -o trace.csv
//
// Passthrough forwards bytes only after the reader validated them, so a
// damaged stream kills the whole pipeline instead of propagating silently.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/trace.hpp"

namespace seo::cli {

/// Usage text for the flags every stage tool shares.
inline constexpr const char* kTraceStageUsage =
    "  FILE|-                 input seo-trace stream (default '-' = stdin)\n"
    "  -o, --output PATH      write the report to PATH (default stdout)\n"
    "  --passthrough          copy the validated input stream to stdout\n"
    "                         (requires -o, so the report and the binary\n"
    "                         stream never share stdout)\n";

/// Common state of one stage tool invocation: the shared flags plus the
/// opened input / report streams.
class TraceStage {
 public:
  /// Consumes `arg` if it is a shared flag or the positional input operand.
  /// `next_arg` is the tool's own missing-value-checked argv fetcher.
  template <typename NextArg>
  bool parse_flag(const std::string& arg, int& i, NextArg&& next_arg) {
    if (arg == "-o" || arg == "--output") {
      output_ = next_arg(i);
      return true;
    }
    if (arg == "--passthrough") {
      passthrough_ = true;
      return true;
    }
    // Positional input: '-' or anything that is not a flag; a second
    // operand falls through to the tool's unknown-argument error.
    if ((arg == "-" || arg.rfind("-", 0) != 0) && !input_seen_) {
      input_ = arg;
      input_seen_ = true;
      return true;
    }
    return false;
  }

  /// Flag-combination check; prints to stderr and returns false on misuse.
  bool validate(const char* tool) const {
    if (passthrough_ && output_.empty()) {
      std::cerr << tool
                << ": --passthrough forwards the binary stream on stdout; "
                   "route the report with -o PATH\n";
      return false;
    }
    return true;
  }

  /// Opens the input stream ('-' = stdin); exits 1 on open failure.
  std::istream& open_input(const char* tool) {
    if (input_ == "-") return std::cin;
    file_in_.open(input_, std::ios::binary);
    if (!file_in_) {
      std::cerr << tool << ": cannot open " << input_ << " for reading\n";
      std::exit(1);
    }
    return file_in_;
  }

  /// Opens the report stream (stdout or -o PATH); exits 1 on failure.
  /// Reports stream incrementally, so a stage holds O(1) state however
  /// long the input is.
  std::ostream& open_report(const char* tool) {
    if (output_.empty()) return std::cout;
    file_out_.open(output_);
    if (!file_out_) {
      std::cerr << tool << ": cannot open " << output_ << " for writing\n";
      std::exit(1);
    }
    return file_out_;
  }

  /// The reader tee: stdout in passthrough mode, else none.
  std::ostream* tee() { return passthrough_ ? &std::cout : nullptr; }

  const std::string& input() const { return input_; }

 private:
  std::string input_ = "-";
  std::string output_;
  bool passthrough_ = false;
  bool input_seen_ = false;
  std::ifstream file_in_;
  std::ofstream file_out_;
};

/// Human-readable name of a stream-rejection code (error messages, tests).
inline const char* trace_errc_name(TraceStreamErrc code) {
  switch (code) {
    case TraceStreamErrc::kBadMagic: return "bad-magic";
    case TraceStreamErrc::kVersionMismatch: return "version-mismatch";
    case TraceStreamErrc::kTruncated: return "truncated";
    case TraceStreamErrc::kBadChecksum: return "bad-checksum";
    case TraceStreamErrc::kBadRecord: return "bad-record";
  }
  return "unknown";
}

/// Standard stage-tool error epilogue: prints the rejection and returns
/// the exit code mains propagate.
inline int report_stream_error(const char* tool, const TraceStreamError& e) {
  std::cerr << tool << ": rejected stream (" << trace_errc_name(e.code())
            << "): " << e.what() << "\n";
  return 1;
}

}  // namespace seo::cli
