#include "common/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace ltp {

namespace {

[[noreturn]] void
printHelp(const char *prog, const CliSpec &spec)
{
    if (!spec.summary.empty())
        std::printf("%s\n\n", spec.summary.c_str());
    std::printf("usage: %s%s%s [--flag[=value]]...\n", prog,
                spec.positionalName.empty() ? "" : " ",
                spec.positionalName.c_str());
    std::printf("known flags:\n");
    std::set<std::string> all = spec.flags;
    all.insert(spec.switches.begin(), spec.switches.end());
    for (const std::string &key : all)
        std::printf("  --%s%s\n", key.c_str(),
                    spec.switches.count(key) ? "" : "=<value>");
    std::exit(0);
}

} // namespace

Cli::Cli(int argc, char **argv, const CliSpec &spec)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            printHelp(argv[0], spec);
        if (arg.rfind("--", 0) != 0) {
            if (spec.positional == Positional::None)
                fatal("%s: unexpected positional argument '%s'", argv[0],
                      arg.c_str());
            if (!positional_.empty())
                fatal("%s: unexpected extra argument '%s' (already got "
                      "'%s')",
                      argv[0], arg.c_str(), positional_.c_str());
            positional_ = arg;
            continue;
        }
        arg = arg.substr(2);

        std::string key, value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            key = arg;
            // `--key value` form only if the next token isn't a flag;
            // a switch never takes one, so `--verify dir/` leaves the
            // positional alone.
            if (!spec.switches.count(key) && i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0)) {
                value = argv[++i];
            } else {
                value = "1"; // boolean switch
            }
        }
        if (key == "help")
            printHelp(argv[0], spec);
        // argv[0] names the subcommand ("ltp sweep"), so a typo'd
        // flag in a long pipeline says exactly where it happened.
        if (!spec.flags.count(key) && !spec.switches.count(key))
            fatal("%s: unknown flag --%s (try %s --help)", argv[0],
                  key.c_str(), argv[0]);
        values_[key].push_back(value);
    }
    if (spec.positional == Positional::Required && positional_.empty())
        fatal("%s needs %s (try %s --help)", argv[0],
              spec.positionalName.c_str(), argv[0]);
}

const std::string *
Cli::last(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second.back();
}

bool
Cli::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Cli::str(const std::string &key, const std::string &dflt) const
{
    const std::string *v = last(key);
    return v ? *v : dflt;
}

std::int64_t
Cli::integer(const std::string &key, std::int64_t dflt) const
{
    const std::string *v = last(key);
    if (!v)
        return dflt;
    // Decimal, or hex behind an explicit 0x.  A leading zero is an
    // error rather than octal, so --detail=0100 cannot mean 64.
    const std::string &s = *v;
    std::size_t d = !s.empty() && (s[0] == '-' || s[0] == '+');
    bool hex = s.size() > d + 2 && s[d] == '0' &&
               (s[d + 1] == 'x' || s[d + 1] == 'X');
    bool digitFirst = s.size() > d && s[d] >= '0' && s[d] <= '9';
    bool leadingZero = !hex && s.size() > d + 1 && s[d] == '0';
    char *end = nullptr;
    errno = 0;
    long long n = std::strtoll(s.c_str(), &end, hex ? 16 : 10);
    if (!digitFirst || leadingZero || *end != '\0' || errno == ERANGE)
        fatal("--%s expects an integer, got '%s'", key.c_str(), s.c_str());
    // Every integer flag is a count, size or seed: a negative one would
    // wrap to a huge unsigned value downstream.
    if (s[0] == '-')
        fatal("--%s expects a non-negative integer, got '%s'", key.c_str(),
              s.c_str());
    return n;
}

double
Cli::real(const std::string &key, double dflt) const
{
    const std::string *v = last(key);
    if (!v)
        return dflt;
    char *end = nullptr;
    double x = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0' || !std::isfinite(x))
        fatal("--%s expects a number, got '%s'", key.c_str(), v->c_str());
    return x;
}

bool
Cli::flag(const std::string &key) const
{
    const std::string *v = last(key);
    return v && *v != "0" && *v != "false";
}

std::vector<std::string>
Cli::list(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{}
                               : it->second;
}

} // namespace ltp
