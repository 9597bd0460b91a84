/**
 * @file
 * The benchmark's own arithmetic: medians, tail percentiles, output
 * checks with failure accounting, and the digest over modelled
 * outputs. Everything here is exercised by selfTest() on every run.
 */
// beacon-lint: allow-file(determinism-wallclock)

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p values (mean of the middle pair when even); 0 if empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** A quantile as an exact fraction, so ranks need no rounding. */
struct Quantile
{
    std::uint64_t num;
    std::uint64_t den;
    const char *name;
};

/** 1-based ceil rank of quantile @p q among @p n samples (n >= 1). */
inline std::size_t
ceilRank(const Quantile &q, std::size_t n)
{
    return std::size_t((q.num * n + q.den - 1) / q.den);
}

/** One percentile of a sample set and how many samples lie above it. */
struct Tail
{
    const char *name = "";
    double value = 0;
    /** Samples ranked strictly after the percentile's sample. */
    std::size_t beyond = 0;
};

/** Ceil-rank percentile @p q of ascending @p sorted (non-empty). */
inline Tail
percentile(const std::vector<double> &sorted, const Quantile &q)
{
    const std::size_t rank =
        std::max<std::size_t>(1, ceilRank(q, sorted.size()));
    return {q.name, sorted[rank - 1], sorted.size() - rank};
}

/**
 * The highest of p50/p90/p99/p99.9/p99.99 that has at least ten
 * samples beyond it, so a reported tail never rests on a handful of
 * jobs. Returns a Tail with an empty name when even p50 lacks them
 * (fewer than 20 samples).
 */
inline Tail
tailPercentile(const std::vector<double> &sorted)
{
    static constexpr Quantile ladder[] = {
        {9999, 10000, "p99.99"}, {999, 1000, "p99.9"},
        {99, 100, "p99"},        {90, 100, "p90"},
        {50, 100, "p50"},
    };
    if (sorted.empty())
        return {};
    for (const Quantile &q : ladder) {
        const Tail tail = percentile(sorted, q);
        if (tail.beyond >= 10)
            return tail;
    }
    return {};
}

/**
 * Output-check ledger. Every unit of work (task, job) and every
 * check counts as attempted; incomplete work and failed checks count
 * as failed. fail_ratio = failed / attempted.
 */
class Checks
{
  public:
    /** @p attempted units of work, @p failed of which did not finish. */
    void
    work(std::uint64_t attempted, std::uint64_t failed,
         const std::string &what)
    {
        attempted_ += attempted;
        failed_ += failed;
        if (failed)
            note(what + ": " + std::to_string(failed) + " of " +
                 std::to_string(attempted) + " did not complete");
    }

    /** One check; a false @p ok counts as a failure. */
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            note(what);
        }
    }

    /**
     * @p num / @p den, where @p den is the ratio's stated base. A zero
     * or negative base is a failed check (the ratio would be
     * meaningless) and yields 0.
     */
    double
    ratio(double num, double den, const std::string &what)
    {
        expect(den > 0, "ratio base is zero: " + what);
        return den > 0 ? num / den : 0;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return notes; }

  private:
    void
    note(const std::string &what)
    {
        // Keep the log bounded when one check fails on every run.
        if (notes.size() < 32)
            notes.push_back(what);
    }

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> notes;
};

/**
 * FNV-1a digest over named modelled outputs. Doubles are hashed from
 * 17 significant digits, which round-trip exactly, so equal digests
 * mean bit-equal values.
 */
class Digest
{
  public:
    void
    add(std::string_view key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "=%.17g;", value);
        mix(key);
        mix(buf);
    }

    void
    add(std::string_view key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "=%llu;",
                      static_cast<unsigned long long>(value));
        mix(key);
        mix(buf);
    }

    void
    text(std::string_view key, std::string_view value)
    {
        mix(key);
        mix("=");
        mix(value);
        mix(";");
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    void
    mix(std::string_view bytes)
    {
        for (unsigned char c : bytes) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }

    std::uint64_t h = 0xcbf29ce484222325ull;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
