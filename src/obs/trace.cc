#include "obs/trace.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace axmemo {

namespace {

/** One mutex for every sink writer: log lines and trace lines never
 * interleave mid-line, even when both target stderr. */
std::mutex &
sinkMutex()
{
    static std::mutex mutex;
    return mutex;
}

/** Trace destination; stderr unless openTraceFile() succeeded. */
FILE *traceFile = nullptr;

thread_local char tlsLabel[16] = "";

} // namespace

namespace trace {

namespace detail {
std::atomic<std::uint32_t> flagWord{0};
constinit thread_local std::uint64_t tlsCycle = 0;
} // namespace detail

const char *
flagName(Flag flag)
{
    switch (flag) {
      case Flag::Exec: return "Exec";
      case Flag::Memo: return "Memo";
      case Flag::Cache: return "Cache";
      case Flag::Dram: return "Dram";
      case Flag::Lut: return "Lut";
      case Flag::Sweep: return "Sweep";
      case Flag::Prof: return "Prof";
      case Flag::Host: return "Host";
      case Flag::NumFlags: break;
    }
    return "???";
}

void
setFlag(Flag flag, bool on)
{
    const std::uint32_t bit = 1u << static_cast<unsigned>(flag);
    if (on)
        detail::flagWord.fetch_or(bit, std::memory_order_relaxed);
    else
        detail::flagWord.fetch_and(~bit, std::memory_order_relaxed);
}

void
clearAllFlags()
{
    detail::flagWord.store(0, std::memory_order_relaxed);
}

namespace {

bool
equalsIgnoreCase(const std::string &a, const char *b)
{
    if (a.size() != std::strlen(b))
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

} // namespace

bool
enableFlags(const std::string &spec, std::string *error)
{
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string name = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (equalsIgnoreCase(name, "all")) {
            for (unsigned i = 0; i < numFlags; ++i)
                setFlag(static_cast<Flag>(i), true);
            continue;
        }
        bool found = false;
        for (unsigned i = 0; i < numFlags; ++i) {
            if (equalsIgnoreCase(name, flagName(static_cast<Flag>(i)))) {
                setFlag(static_cast<Flag>(i), true);
                found = true;
                break;
            }
        }
        if (!found) {
            if (error) {
                *error = "unknown debug flag '" + name +
                         "' (known: Exec, Memo, Cache, Dram, Lut, "
                         "Sweep, Prof, Host, All)";
            }
            return false;
        }
    }
    return true;
}

void
initFromEnv()
{
    const char *env = std::getenv("AXMEMO_DEBUG");
    if (!env || !*env)
        return;
    std::string error;
    if (!enableFlags(env, &error))
        std::fprintf(stderr, "AXMEMO_DEBUG: %s\n", error.c_str());
}

void
print(Flag flag, const char *component, const std::string &message)
{
    (void)flag;
    char prefix[48];
    const char *label = tlsLabel;
    if (label[0]) {
        std::snprintf(prefix, sizeof(prefix), "%10llu: [%s] %s: ",
                      static_cast<unsigned long long>(detail::tlsCycle),
                      label, component);
    } else {
        std::snprintf(prefix, sizeof(prefix), "%10llu: %s: ",
                      static_cast<unsigned long long>(detail::tlsCycle),
                      component);
    }
    std::string line;
    line.reserve(std::strlen(prefix) + message.size() + 1);
    line += prefix;
    line += message;
    line += '\n';
    std::lock_guard<std::mutex> lock(sinkMutex());
    FILE *to = traceFile ? traceFile : stderr;
    std::fwrite(line.data(), 1, line.size(), to);
}

bool
openTraceFile(const std::string &path)
{
    FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    std::lock_guard<std::mutex> lock(sinkMutex());
    if (traceFile)
        std::fclose(traceFile);
    traceFile = file;
    return true;
}

void
closeTraceFile()
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    if (traceFile) {
        std::fclose(traceFile);
        traceFile = nullptr;
    }
}

} // namespace trace

namespace obs {

void
logLine(FILE *to, const std::string &line)
{
    std::string out;
    const char *label = tlsLabel;
    out.reserve(line.size() + 8);
    if (label[0]) {
        out += '[';
        out += label;
        out += "] ";
    }
    out += line;
    if (out.empty() || out.back() != '\n')
        out += '\n';
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::fwrite(out.data(), 1, out.size(), to);
    std::fflush(to);
}

void
forwardLine(FILE *to, const std::string &line)
{
    std::string out = line;
    if (out.empty() || out.back() != '\n')
        out += '\n';
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::fwrite(out.data(), 1, out.size(), to);
    std::fflush(to);
}

void
setThreadLabel(unsigned workerIndex)
{
    std::snprintf(tlsLabel, sizeof(tlsLabel), "w%u", workerIndex);
}

void
clearThreadLabel()
{
    tlsLabel[0] = '\0';
}

const char *
threadLabel()
{
    return tlsLabel;
}

} // namespace obs

} // namespace axmemo
