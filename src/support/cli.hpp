// Tiny declarative command-line parser for examples and bench harnesses.
//
//   ArgParser args("bench_fig5", "Reproduce Fig. 5");
//   args.add_int("procs", 64, "number of MPI ranks");
//   args.add_flag("csv", "emit CSV instead of tables");
//   if (!args.parse(argc, argv)) return 1;   // prints usage on --help/-h
//   int p = args.get_int("procs");
//
// All mpisect-* tools share one flag vocabulary (add_unified_flags):
//   --model <preset>   machine model
//   --export <fmt>     output format
//   --json             shorthand for --export json
//   --seed <n>         world seed
//   --version          provenance banner
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpisect::support {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  void add_int(const std::string& name, long long def,
               const std::string& help);
  void add_double(const std::string& name, double def,
                  const std::string& help);
  void add_string(const std::string& name, std::string def,
                  const std::string& help);
  void add_flag(const std::string& name, const std::string& help);
  /// Declare a required positional argument (filled left to right).
  /// Read back with get_string(name).
  void add_positional(const std::string& name, const std::string& help);

  /// Parse `--name value`, `--name=value` and `--flag` forms. Returns false
  /// (after printing usage) on `--help` or on a malformed/unknown argument,
  /// (after printing the provenance banner) on `--version`, and (after a
  /// one-line error) on an int or float value with trailing characters or
  /// out of its type's range.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { Int, Double, String, Flag };
  struct Option {
    Kind kind;
    std::string help;
    std::string value;  // textual; parsed on get
    bool flag_set = false;
  };

  bool set_value(const std::string& name, const std::string& value);
  const Option& require(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  std::vector<std::string> positionals_;  ///< declaration order
};

/// Register the flag vocabulary every mpisect-* tool shares: `--model`,
/// `--export`, `--json` and `--seed`. `--version` is built into parse();
/// the tools' launcher declares `--self-trace`.
void add_unified_flags(ArgParser& args, const std::string& model_default,
                       const std::string& export_default,
                       long long seed_default);

/// Resolve the unified output format: `--json` wins over `--export`.
[[nodiscard]] std::string unified_export(const ArgParser& args);

/// Register the flag shared by every tool/bench that constructs a
/// simulated world, in the common `preset[:key=value,...]` vocabulary:
///   --exec  cooperative[:workers=N,stack=KB] | threads
/// Feed the value to WorldBuilder::exec_spec(), which parses and validates
/// it (support is below mpisim, so parsing lives there).
void add_world_flags(ArgParser& args);

/// Largest magnitude below which every integer is exactly a double: the
/// bound of the serve daemon's integer params and of the CLI flags that
/// fill them (seeds, the eager threshold).
inline constexpr std::int64_t kMaxExactInt = std::int64_t{1} << 53;

/// `v` as an integer if it is whole and in [lo, hi], else a
/// std::invalid_argument naming `name` ("param 'name' must be an integer
/// in [lo, hi]"). A double outside the integer range cannot be cast
/// (undefined behaviour), so it is checked first.
[[nodiscard]] std::int64_t check_int(const char* name, double v,
                                     std::int64_t lo, std::int64_t hi);

}  // namespace mpisect::support
