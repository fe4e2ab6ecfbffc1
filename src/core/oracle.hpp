#pragma once

/// \file oracle.hpp
/// Oracle API v2 — one measurement-backend handle for every AL loop.
///
/// v1 accepted three bare callable shapes: fallible over design points,
/// fallible over problem rows, and an infallible `double(x)` special-cased
/// by the continuous loop. Each loop accepted exactly one shape, so a
/// backend had to be re-wrapped per loop and could expose no capability
/// beyond "call me synchronously". `al::Oracle` erases all three shapes
/// behind one value type:
///
///   - construct it from *any* callable taking `std::span<const double>`
///     (a design point) or `std::size_t` (a problem-row index) and
///     returning either a `Measurement` (fallible backends) or a plain
///     `double` (infallible backends — non-finite responses throw
///     std::invalid_argument before they can reach a Cholesky);
///   - loops probe capabilities (`hasPointMeasure` / `hasRowMeasure`)
///     instead of demanding a shape: the discrete learner now accepts
///     point-based backends (it passes the picked row's coordinates),
///     and a row capability can be attached next to a point one via
///     `withRowMeasure` when row identity matters (e.g. caching);
///   - backends whose scheduler is natively asynchronous can attach a
///     submit/await pair (`withAsync`): `al::AsyncDispatcher`
///     (core/dispatch.hpp) then hands the experiment to the backend at
///     dispatch time and only parks a slot on `await`, instead of
///     blocking a slot for the whole measurement.
///
/// Construction is implicit on purpose: a loop parameter reads
/// `const Oracle&`, and any lambda or std::function of one of the shapes
/// above converts to it at the call site.

#include <cmath>
#include <concepts>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/outcome.hpp"

namespace alperf::al {

class Oracle {
 public:
  /// Row id used where no problem row exists (continuous suggestions).
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  using MeasureFn = std::function<Measurement(std::span<const double>)>;
  using MeasureRowFn = std::function<Measurement(std::size_t)>;
  /// Backend-native asynchrony: `submit` hands the experiment (problem
  /// row, or kNoRow, plus its design point) to the backend and returns a
  /// backend ticket immediately; `await` blocks until that ticket's
  /// measurement is available. Retried attempts re-submit.
  using SubmitFn =
      std::function<std::uint64_t(std::size_t row, std::span<const double> x)>;
  using AwaitFn = std::function<Measurement(std::uint64_t ticket)>;

  /// An Oracle with no capabilities (operator bool returns false).
  Oracle() = default;
  /// v1 compatibility: call sites passed `nullptr` where a std::function
  /// oracle was expected; that still produces a capability-less Oracle,
  /// rejected by the loops' entry checks.
  Oracle(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// From any point-based callable: `f(span<const double>)` returning a
  /// Measurement (fallible) or a double (infallible; non-finite responses
  /// throw std::invalid_argument). A null std::function stays null.
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, Oracle> &&
             std::invocable<F&, std::span<const double>>)
  Oracle(F f) {  // NOLINT(google-explicit-constructor): see file comment.
    if constexpr (requires { f == nullptr; }) {
      if (f == nullptr) return;
    }
    using R = std::invoke_result_t<F&, std::span<const double>>;
    if constexpr (std::is_same_v<R, Measurement>) {
      measure_ = std::move(f);
    } else {
      static_assert(std::is_convertible_v<R, double>,
                    "Oracle: point callable must return Measurement or "
                    "double");
      measure_ = [g = std::move(f)](std::span<const double> x) {
        const double y = g(x);
        requireArg(std::isfinite(y),
                   "Oracle: infallible backend returned a non-finite "
                   "response");
        return Measurement::ok(y, 0.0);
      };
    }
  }

  /// From any row-based callable: `f(std::size_t)` returning a
  /// Measurement or a double (same wrapping as the point form). Callables
  /// invocable with a span bind to the point constructor instead, so a
  /// generic lambda is treated as point-based.
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, Oracle> &&
             !std::invocable<F&, std::span<const double>> &&
             std::invocable<F&, std::size_t>)
  Oracle(F f) {  // NOLINT(google-explicit-constructor)
    if constexpr (requires { f == nullptr; }) {
      if (f == nullptr) return;
    }
    using R = std::invoke_result_t<F&, std::size_t>;
    if constexpr (std::is_same_v<R, Measurement>) {
      measureRow_ = std::move(f);
    } else {
      static_assert(std::is_convertible_v<R, double>,
                    "Oracle: row callable must return Measurement or "
                    "double");
      measureRow_ = [g = std::move(f)](std::size_t row) {
        const double y = g(row);
        requireArg(std::isfinite(y),
                   "Oracle: infallible backend returned a non-finite "
                   "response");
        return Measurement::ok(y, 0.0);
      };
    }
  }

  /// Capability probes.
  bool hasPointMeasure() const { return static_cast<bool>(measure_); }
  bool hasRowMeasure() const { return static_cast<bool>(measureRow_); }
  bool hasAsync() const {
    return static_cast<bool>(submit_) && static_cast<bool>(await_);
  }
  /// True when the oracle can measure at all (either shape).
  explicit operator bool() const {
    return hasPointMeasure() || hasRowMeasure();
  }

  /// Attaches a row capability next to an existing point one (or vice
  /// versa: default-construct, then chain both). Returns *this.
  Oracle& withRowMeasure(MeasureRowFn f) {
    measureRow_ = std::move(f);
    return *this;
  }
  Oracle& withPointMeasure(MeasureFn f) {
    measure_ = std::move(f);
    return *this;
  }
  /// Attaches the native-async submit/await pair. Both must be non-null.
  Oracle& withAsync(SubmitFn submit, AwaitFn await) {
    requireArg(submit != nullptr && await != nullptr,
               "Oracle::withAsync: submit and await must both be set");
    submit_ = std::move(submit);
    await_ = std::move(await);
    return *this;
  }

  /// Synchronous measurement at a design point / problem row. Throws
  /// std::invalid_argument when the capability is absent.
  Measurement measure(std::span<const double> x) const {
    requireArg(hasPointMeasure(), "Oracle: no point-measure capability");
    return measure_(x);
  }
  Measurement measureRow(std::size_t row) const {
    requireArg(hasRowMeasure(), "Oracle: no row-measure capability");
    return measureRow_(row);
  }

  /// Measures through the best-fitting capability: the row form when a
  /// real row id and a row capability exist, the point form otherwise.
  Measurement measureAny(std::size_t row, std::span<const double> x) const {
    if (row != kNoRow && hasRowMeasure()) return measureRow_(row);
    return measure(x);
  }

  /// Native-async hooks (hasAsync() must be true).
  std::uint64_t submit(std::size_t row, std::span<const double> x) const {
    requireArg(hasAsync(), "Oracle: no async capability");
    return submit_(row, x);
  }
  Measurement await(std::uint64_t ticket) const {
    requireArg(hasAsync(), "Oracle: no async capability");
    return await_(ticket);
  }

 private:
  MeasureFn measure_;
  MeasureRowFn measureRow_;
  SubmitFn submit_;
  AwaitFn await_;
};

}  // namespace alperf::al
