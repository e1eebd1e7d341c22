// Shared driver of the trace-* stage tools.  Every stage reads one
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
//
// A tool's main declares its own flags, calls parse(), and hands its
// record loop to run(); TraceStage does the rest.  Exit codes: 0 ok,
// 1 unreadable input/report, rejected stream or failed write, 2 usage
// error.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace seo::cli {

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

/// One stage-tool invocation: the shared flags plus the tool's own, the
/// input and report streams, and the reader.
class TraceStage {
 public:
  /// `tool` names the binary in usage and error lines; `usage_flags` holds
  /// the usage lines of the tool's own flags.
  TraceStage(const char* tool, const char* usage_flags)
      : tool_(tool), usage_flags_(usage_flags) {}

  /// Declares a tool flag that sets `on`.
  void flag(const char* name, bool& on) {
    flags_.push_back({name, &on, nullptr});
  }
  /// Declares a tool flag that takes a value into `value`.
  void option(const char* name, std::string& value) {
    flags_.push_back({name, nullptr, &value});
  }

  /// Parses argv in order.  --help prints the usage to stdout and exits 0;
  /// an unknown argument, a missing value, or --passthrough without -o is
  /// a misuse (exit 2).
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(std::cout);
        std::exit(0);
      }
      const auto value = [&] {
        if (i + 1 >= argc) misuse("missing value for " + arg);
        return std::string(argv[++i]);
      };
      if (const Flag* flag = find_flag(arg)) {
        if (flag->on != nullptr)
          *flag->on = true;
        else
          *flag->value = value();
      } else if (arg == "-o" || arg == "--output") {
        output_ = value();
      } else if (arg == "--passthrough") {
        passthrough_ = true;
      } else if ((arg == "-" || arg.rfind("-", 0) != 0) && !input_seen_) {
        // Positional input: '-' or anything that is not a flag; a second
        // operand is an unknown argument.
        input_ = arg;
        input_seen_ = true;
      } else {
        misuse("unknown argument: " + arg);
      }
    }
    if (passthrough_ && output_.empty())
      misuse(std::string(tool_) +
             ": --passthrough forwards the binary stream on stdout; "
             "route the report with -o PATH");
  }

  /// Prints `message` and the usage to stderr and exits 2.
  [[noreturn]] void misuse(const std::string& message) const {
    std::cerr << message << "\n";
    print_usage(std::cerr);
    std::exit(2);
  }

  /// Opens the input, builds the validating reader (tee'd to stdout under
  /// --passthrough) and runs `loop(reader)`.  Returns the exit code: 0, or
  /// 1 with a `rejected stream (<code>)` line when the stream is damaged,
  /// or with a `write failed` line when the report or the passthrough
  /// stream could not be written (a full disk, a closed pipe).
  template <typename Loop>
  int run(Loop&& loop) {
    try {
      TraceStreamReader reader(open_input(),
                               passthrough_ ? &std::cout : nullptr);
      loop(reader);
    } catch (const TraceStreamError& e) {
      std::cerr << tool_ << ": rejected stream ("
                << trace_errc_name(e.code()) << "): " << e.what() << "\n";
      return 1;
    }
    const bool stdout_ok = static_cast<bool>(std::cout.flush());
    const bool file_ok =
        !file_out_.is_open() || static_cast<bool>(file_out_.flush());
    if (!stdout_ok || !file_ok) {
      std::cerr << tool_ << ": write failed\n";
      return 1;
    }
    return 0;
  }

  /// The report stream (stdout or -o PATH), opened on first use so a
  /// loop decides when the file appears; exits 1 when it cannot be opened.
  /// Reports stream incrementally, so a stage holds O(1) state however
  /// long the input is.
  std::ostream& report() {
    if (output_.empty()) return std::cout;
    if (!file_out_.is_open()) {
      file_out_.open(output_);
      if (!file_out_) {
        std::cerr << tool_ << ": cannot open " << output_ << " for writing\n";
        std::exit(1);
      }
    }
    return file_out_;
  }

 private:
  struct Flag {
    std::string name;
    bool* on;            ///< set for a boolean flag
    std::string* value;  ///< set for a flag that takes a value
  };

  const Flag* find_flag(const std::string& arg) const {
    for (const Flag& flag : flags_)
      if (flag.name == arg) return &flag;
    return nullptr;
  }

  void print_usage(std::ostream& out) const {
    out << "usage: " << tool_ << " [FILE|-] [options]\n"
        << "  FILE|-                 input seo-trace stream (default '-' = "
           "stdin)\n"
           "  -o, --output PATH      write the report to PATH (default "
           "stdout)\n"
           "  --passthrough          copy the validated input stream to "
           "stdout\n"
           "                         (requires -o, so the report and the "
           "binary\n"
           "                         stream never share stdout)\n"
        << usage_flags_;
  }

  /// The input stream ('-' = stdin); exits 1 when the file cannot be
  /// opened.
  std::istream& open_input() {
    if (input_ == "-") return std::cin;
    file_in_.open(input_, std::ios::binary);
    if (!file_in_) {
      std::cerr << tool_ << ": cannot open " << input_ << " for reading\n";
      std::exit(1);
    }
    return file_in_;
  }

  const char* tool_;
  const char* usage_flags_;
  std::vector<Flag> flags_;
  std::string input_ = "-";
  std::string output_;
  bool passthrough_ = false;
  bool input_seen_ = false;
  std::ifstream file_in_;
  std::ofstream file_out_;
};

}  // namespace seo::cli
