#include "support/flight_recorder.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define BALANCE_HAVE_BACKTRACE 1
#endif

namespace balance
{

namespace
{

/** Microseconds since the first call (cheap monotone timestamps). */
std::int64_t
nowUs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               clock::now() - epoch)
        .count();
}

// ---- async-signal-safe formatting helpers ------------------------
//
// The crash path may not call snprintf/malloc/locale machinery, so
// decimal formatting is done by hand into stack buffers and output
// goes straight through write(2). Short writes are retried; errors
// are ignored (there is nothing useful to do with them mid-crash).

void
fdWrite(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return;
        }
        data += n;
        len -= std::size_t(n);
    }
}

void
fdStr(int fd, const char *s)
{
    if (s)
        fdWrite(fd, s, std::strlen(s));
}

void
fdDec(int fd, long long v)
{
    char buf[24];
    char *p = buf + sizeof(buf);
    bool neg = v < 0;
    unsigned long long u = neg
        ? ~static_cast<unsigned long long>(v) + 1ULL
        : static_cast<unsigned long long>(v);
    do {
        *--p = char('0' + u % 10);
        u /= 10;
    } while (u != 0);
    if (neg)
        *--p = '-';
    fdWrite(fd, p, std::size_t(buf + sizeof(buf) - p));
}

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV";
      case SIGABRT:
        return "SIGABRT";
      case SIGBUS:
        return "SIGBUS";
      case SIGINT:
        return "SIGINT";
      default:
        return "signal";
    }
}

} // namespace

const char *
flightEventTypeName(FlightEventType type)
{
    switch (type) {
      case FlightEventType::PhaseEnter:
        return "phase_enter";
      case FlightEventType::PhaseLeave:
        return "phase_leave";
      case FlightEventType::Superblock:
        return "superblock";
      case FlightEventType::BnbRound:
        return "bnb_round";
      case FlightEventType::Mark:
        return "mark";
    }
    return "unknown";
}

FlightRecorder::Slot *
FlightRecorder::localSlot()
{
    // One slot per (recorder, thread). The global recorder is the
    // only long-lived instance, so a plain thread_local cache keyed
    // on the instance pointer suffices.
    thread_local FlightRecorder *cachedOwner = nullptr;
    thread_local Slot *cachedSlot = nullptr;
    if (cachedOwner == this && cachedSlot)
        return cachedSlot;
    for (int i = 0; i < maxThreads; ++i) {
        bool expected = false;
        if (slots[i].claimed.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
            slotsUsed.fetch_add(1, std::memory_order_relaxed);
            cachedOwner = this;
            cachedSlot = &slots[i];
            return cachedSlot;
        }
    }
    // Slot table full: drop this thread's events (bounded by design).
    return nullptr;
}

void
FlightRecorder::record(FlightEventType type, const char *label,
                       std::int64_t a, std::int64_t b)
{
    if (!enabled())
        return;
    Slot *slot = localSlot();
    if (!slot)
        return;
    std::uint64_t n = slot->next.load(std::memory_order_relaxed);
    FlightEvent &e = slot->ring[n % ringCapacity];
    e.tsUs = nowUs();
    e.label = label;
    e.a = a;
    e.b = b;
    e.type = type;
    // Release so a dump that observes the bumped index also observes
    // the event fields written above.
    slot->next.store(n + 1, std::memory_order_release);
}

void
FlightRecorder::setThreadPhase(const char *phase)
{
    if (!enabled())
        return;
    if (Slot *slot = localSlot())
        slot->phase.store(phase, std::memory_order_release);
}

const char *
FlightRecorder::threadPhase()
{
    Slot *slot = localSlot();
    return slot ? slot->phase.load(std::memory_order_acquire)
                : nullptr;
}

void
FlightRecorder::dumpTo(int fd) const
{
    fdStr(fd, "flight recorder (newest events first; timestamps in "
              "us since start)\n");
    int lane = 0;
    for (int i = 0; i < maxThreads; ++i) {
        const Slot &slot = slots[i];
        if (!slot.claimed.load(std::memory_order_acquire))
            continue;
        std::uint64_t n = slot.next.load(std::memory_order_acquire);
        const char *phase = slot.phase.load(std::memory_order_acquire);
        fdStr(fd, "thread ");
        fdDec(fd, lane++);
        fdStr(fd, " active phase: ");
        fdStr(fd, phase ? phase : "(none)");
        fdStr(fd, " events: ");
        fdDec(fd, (long long)(n));
        fdStr(fd, "\n");
        std::uint64_t count = n < std::uint64_t(ringCapacity)
            ? n
            : std::uint64_t(ringCapacity);
        std::uint64_t toPrint =
            count < std::uint64_t(dumpEventsPerThread)
            ? count
            : std::uint64_t(dumpEventsPerThread);
        for (std::uint64_t k = 0; k < toPrint; ++k) {
            // Newest first: event n-1-k lives at (n-1-k) % capacity.
            const FlightEvent &e =
                slot.ring[(n - 1 - k) % ringCapacity];
            fdStr(fd, "  -");
            fdDec(fd, (long long)(k + 1));
            fdStr(fd, " ");
            fdStr(fd, flightEventTypeName(e.type));
            fdStr(fd, " ");
            fdStr(fd, e.label ? e.label : "-");
            fdStr(fd, " a=");
            fdDec(fd, e.a);
            fdStr(fd, " b=");
            fdDec(fd, e.b);
            fdStr(fd, " t=");
            fdDec(fd, e.tsUs);
            fdStr(fd, "us\n");
        }
    }
}

std::vector<FlightEvent>
FlightRecorder::snapshot() const
{
    std::vector<FlightEvent> out;
    for (int i = 0; i < maxThreads; ++i) {
        const Slot &slot = slots[i];
        if (!slot.claimed.load(std::memory_order_acquire))
            continue;
        std::uint64_t n = slot.next.load(std::memory_order_acquire);
        std::uint64_t count = n < std::uint64_t(ringCapacity)
            ? n
            : std::uint64_t(ringCapacity);
        for (std::uint64_t k = 0; k < count; ++k)
            out.push_back(slot.ring[(n - count + k) % ringCapacity]);
    }
    return out;
}

void
FlightRecorder::clear()
{
    for (int i = 0; i < maxThreads; ++i) {
        Slot &slot = slots[i];
        if (!slot.claimed.load(std::memory_order_acquire))
            continue;
        slot.next.store(0, std::memory_order_release);
        slot.phase.store(nullptr, std::memory_order_release);
    }
}

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder *recorder = new FlightRecorder();
    return *recorder;
}

FlightScope::FlightScope(const char *phase, std::int64_t arg)
{
    FlightRecorder &rec = FlightRecorder::global();
    if (!rec.enabled())
        return;
    scopePhase = phase;
    previous = rec.threadPhase();
    rec.record(FlightEventType::PhaseEnter, phase, arg);
    rec.setThreadPhase(phase);
}

FlightScope::~FlightScope()
{
    if (!scopePhase)
        return;
    FlightRecorder &rec = FlightRecorder::global();
    rec.record(FlightEventType::PhaseLeave, scopePhase);
    rec.setThreadPhase(previous);
}

namespace
{

std::atomic<bool> handlersInstalled{false};
std::atomic<int> crashDepth{0};

/**
 * The fatal-signal handler. Installed with SA_RESETHAND, so the
 * default disposition is already restored when this runs; after the
 * dump the signal is re-raised and the process dies exactly as it
 * would have without the handler (core dump, exit status).
 */
void
crashHandler(int sig)
{
    // A crash inside the dump re-raises straight through (the
    // default handler is back); this guard stops a second thread
    // faulting concurrently from interleaving a second dump.
    if (crashDepth.fetch_add(1, std::memory_order_relaxed) == 0) {
        char path[64];
        char *p = path;
        const char *prefix = "crash-";
        while (*prefix)
            *p++ = *prefix++;
        long long pid = (long long)(::getpid());
        char digits[24];
        int nd = 0;
        do {
            digits[nd++] = char('0' + pid % 10);
            pid /= 10;
        } while (pid != 0);
        while (nd > 0)
            *p++ = digits[--nd];
        const char *suffix = ".txt";
        while (*suffix)
            *p++ = *suffix++;
        *p = '\0';

        int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            fdStr(fd, "fatal signal ");
            fdDec(fd, sig);
            fdStr(fd, " (");
            fdStr(fd, signalName(sig));
            fdStr(fd, ") pid ");
            fdDec(fd, (long long)(::getpid()));
            fdStr(fd, "\n\n");
#ifdef BALANCE_HAVE_BACKTRACE
            fdStr(fd, "backtrace:\n");
            void *frames[64];
            int depth = ::backtrace(frames, 64);
            ::backtrace_symbols_fd(frames, depth, fd);
            fdStr(fd, "\n");
#endif
            FlightRecorder::global().dumpTo(fd);
            ::close(fd);

            fdStr(2, "wrote ");
            fdStr(2, path);
            fdStr(2, "\n");
        }
    }
    ::raise(sig);
}

} // namespace

void
installCrashHandlers()
{
    if (handlersInstalled.exchange(true, std::memory_order_acq_rel))
        return;
    FlightRecorder::global().enable();
#ifdef BALANCE_HAVE_BACKTRACE
    // The first backtrace() loads libgcc's unwinder through the
    // dynamic loader, which allocates; do it here, so the handler
    // never calls malloc (backtrace(3), NOTES).
    void *frame[1];
    ::backtrace(frame, 1);
#endif
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashHandler;
    sigemptyset(&sa.sa_mask);
    // SA_RESETHAND: the default disposition is restored before the
    // handler runs, so the re-raise terminates for real. SA_NODEFER
    // lets a fault inside the handler die immediately too.
    sa.sa_flags = SA_RESETHAND | SA_NODEFER;
    ::sigaction(SIGSEGV, &sa, nullptr);
    ::sigaction(SIGABRT, &sa, nullptr);
    ::sigaction(SIGBUS, &sa, nullptr);
}

bool
crashHandlersInstalled()
{
    return handlersInstalled.load(std::memory_order_acquire);
}

} // namespace balance
