#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/report.hh"

namespace ltp {

ServeBackend::ServeBackend(const std::string &host, int port,
                           const ServeClientOptions &opts)
    : opts_(opts), host_(host), port_(port)
{
    // Bounded connect: each attempt is individually timed out, and a
    // daemon that stays unreachable fails the construction with its
    // address — never an indefinite block inside connect(2).
    int attempts = std::max(1, opts_.connectAttempts);
    std::string last_err;
    for (int i = 0; i < attempts && !conn_; ++i) {
        if (i > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(
                opts_.connectRetryDelayMs));
        try {
            conn_ = std::make_unique<LineConn>(
                connectTcp(host, port, opts_.connectTimeoutMs));
        } catch (const std::exception &e) {
            last_err = e.what();
        }
    }
    if (!conn_)
        throw std::runtime_error(
            last_err + " [after " + std::to_string(attempts) +
            " attempt(s) to " + address() + "]");
    reader_ = std::thread([this]() { readerLoop(); });
}

std::string
ServeBackend::address() const
{
    return host_ + ":" + std::to_string(port_);
}

ServeBackend::~ServeBackend()
{
    conn_->shutdown();
    if (reader_.joinable())
        reader_.join();
}

void
ServeBackend::readerLoop()
{
    std::string line;
    while (conn_->readLine(line)) {
        framesSeen_.fetch_add(1, std::memory_order_relaxed);
        JsonValue frame;
        try {
            frame = parseJson(line);
        } catch (const std::exception &) {
            continue; // tolerate garbage between valid frames
        }
        if (!frame.isObject())
            continue;

        auto idIt = frame.object.find("id");
        if (idIt == frame.object.end()) {
            // Unaddressed frames are server-push events; today that
            // is only the progress stream.
            ProgressFn handler;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                progressFrames_ += 1;
                handler = progressHandler_;
            }
            if (handler) {
                try {
                    handler(Progress{frameU64(frame, "done"),
                                     frameU64(frame, "total"),
                                     frameU64(frame, "hits"), ""});
                } catch (const std::exception &) {
                    // A malformed push is dropped like any garbage.
                }
            }
            continue;
        }
        std::uint64_t id = 0;
        if (!idIt->second.isNumber() ||
            !u64FromLexeme(idIt->second.str, &id))
            continue;

        std::promise<JsonValue> promise;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = pending_.find(id);
            if (it == pending_.end())
                continue; // response to a caller that gave up
            promise = std::move(it->second);
            pending_.erase(it);
        }
        promise.set_value(std::move(frame));
    }

    // Connection gone: every waiter gets the reason instead of a hang.
    std::lock_guard<std::mutex> lock(mutex_);
    dead_ = true;
    if (deadReason_.empty())
        deadReason_ = "serve connection closed by peer";
    for (auto &[id, promise] : pending_)
        promise.set_exception(std::make_exception_ptr(
            std::runtime_error(deadReason_)));
    pending_.clear();
}

JsonValue
ServeBackend::call(JsonValue frame)
{
    std::uint64_t id = 0;
    std::future<JsonValue> future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (dead_)
            throw std::runtime_error(deadReason_);
        id = nextId_++;
        future = pending_[id].get_future();
    }
    frame.object["id"] = jsonU64(id);

    if (!conn_->writeFrame(frame)) {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_.erase(id);
        throw std::runtime_error("serve connection to " + address() +
                                 " lost mid-request");
    }

    // Wait with a liveness deadline: any frame from the server (a
    // result for another worker, streamed progress) proves it is
    // alive and resets the clock; `replyTimeoutMs` of total silence
    // means a hung daemon, and the request fails instead of wedging
    // the sweep.
    using Clock = std::chrono::steady_clock;
    auto deadline =
        Clock::now() + std::chrono::milliseconds(opts_.replyTimeoutMs);
    std::uint64_t seen = framesSeen_.load(std::memory_order_relaxed);
    for (;;) {
        if (future.wait_for(std::chrono::milliseconds(50)) ==
            std::future_status::ready)
            break;
        std::uint64_t now_seen =
            framesSeen_.load(std::memory_order_relaxed);
        if (now_seen != seen) {
            seen = now_seen;
            deadline = Clock::now() +
                       std::chrono::milliseconds(opts_.replyTimeoutMs);
        } else if (Clock::now() >= deadline) {
            bool still_pending = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                still_pending = pending_.erase(id) > 0;
            }
            // Lost the race: the reader fulfilled the promise while
            // we were deciding to give up — take the reply after all.
            if (!still_pending &&
                future.wait_for(std::chrono::milliseconds(0)) ==
                    std::future_status::ready)
                break;
            throw std::runtime_error(
                "no response from serve daemon at " + address() +
                " after " + std::to_string(opts_.replyTimeoutMs) +
                " ms of silence (hung daemon?)");
        }
    }

    JsonValue reply = future.get();
    auto typeIt = reply.object.find("type");
    if (typeIt != reply.object.end() && typeIt->second.isString() &&
        typeIt->second.str == "error") {
        auto msgIt = reply.object.find("message");
        throw std::runtime_error(
            "serve error: " + (msgIt != reply.object.end()
                                   ? msgIt->second.str
                                   : std::string("(no message)")));
    }
    return reply;
}

CellResult
ServeBackend::runCell(const CellKey &, const SimConfig &cfg,
                      const std::string &workload,
                      const RunLengths &lengths,
                      const SamplePlan &sampling)
{
    // No key: the daemon derives it from what it will run.
    JsonValue frame = objectFrame("run");
    frame.object["workload"] = jsonStr(workload);
    frame.object["config"] = parseJson(configToJson(cfg));
    frame.object["lengths"] = lengthsJson(lengths);
    // Omitted when disabled: non-sampled clients stay wire-compatible
    // with protocol-v1 daemons.
    if (sampling.enabled())
        frame.object["sampling"] = samplingJson(sampling);

    JsonValue reply = call(std::move(frame));

    CellResult out;
    out.metrics = metricsFromJson(frameObject(reply, "metrics"));
    auto flag = [&reply](const char *name) {
        auto it = reply.object.find(name);
        return it != reply.object.end() && it->second.isBool() &&
               it->second.boolean;
    };
    // A dedupe is a hit from the sweep's point of view: the cell was
    // not re-simulated on this run's behalf.
    out.cacheHit = flag("hit") || flag("deduped");
    return out;
}

bool
ServeBackend::lookup(const CellKey &key, Metrics *out)
{
    JsonValue frame = objectFrame("lookup");
    frame.object["key"] = jsonStr(key.hex);

    JsonValue reply = call(std::move(frame));
    auto foundIt = reply.object.find("found");
    if (foundIt == reply.object.end() || !foundIt->second.isBool())
        throw std::runtime_error("serve lookup reply missing 'found'");
    if (!foundIt->second.boolean)
        return false;
    *out = metricsFromJson(frameObject(reply, "metrics"));
    return true;
}

SweepResult
ServeBackend::submitScenario(const JsonValue &scenario)
{
    JsonValue frame = objectFrame("scenario");
    frame.object["scenario"] = scenario;

    JsonValue reply = call(std::move(frame));

    SweepResult out = sweepResultFromJson(reply);
    out.backend = "serve";
    out.cacheHits = std::size_t(frameU64(reply, "cacheHits"));
    return out;
}

JsonValue
ServeBackend::rpc(const std::string &type)
{
    return call(objectFrame(type));
}

std::uint64_t
ServeBackend::progressFrames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return progressFrames_;
}

void
ServeBackend::setProgressHandler(ProgressFn fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    progressHandler_ = std::move(fn);
}

void
parseHostPort(const std::string &spec, std::string *host, int *port)
{
    // Defaults (loopback, the ServeOptions port) survive empty parts:
    // "", "host", ":7500", and "host:7500" are all valid.
    auto colon = spec.rfind(':');
    std::string h = colon == std::string::npos ? spec
                                               : spec.substr(0, colon);
    std::string p =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (!h.empty())
        *host = h;
    if (!p.empty())
        *port = std::stoi(p);
}

} // namespace ltp
