// Typed key tables: every `key=value` knob declared once.
//
// Config overrides, policy params and trace-spec keys are each a row of a
// ParamTable: the key, the field it sets, its kind, the bound its value must
// lie in, one example value and a help line. Parsing, printing, bound checks,
// the `--list-*` listings and error messages all read that one row.
//
//   struct Options { int slots = 4; SimTime timeout = 120.0; };
//   using enum util::ParamKind;
//   const util::ParamTable<Options> table({
//       {"slots", util::field<&Options::slots>, kInt, util::kPositive, "2", "job slots"},
//       {"timeout", util::field<&Options::timeout>, kDuration, util::kAnyValue, "2min",
//        "give up after"},
//   });
//   Options options = table.defaults();
//   table.apply({{"slots", "8"}}, &options, "param", &error);
//
// A bad value fails with one shape,
//   <where> '<key>': invalid value '<v>' (expected <kind>, e.g. <key>=<example>)
// and an unknown key lists the table's keys.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/units.h"

namespace vrc::util {

/// The text grammar of a value. Integers are base 10 and must fit the field;
/// durations and bytes take util/units.h's unit suffixes; doubles are
/// finite; a choice is one of the row's words; a string is non-empty.
enum class ParamKind { kBool, kInt, kUint64, kDouble, kDuration, kBytes, kChoice, kString };

/// A field's value: bool, int64 (signed integers, bytes), uint64 (unsigned
/// integers), double (doubles, durations) or string (choices, strings).
/// monostate is an unset optional field.
using ParamValue =
    std::variant<std::monostate, bool, std::int64_t, std::uint64_t, double, std::string>;

/// The range [lo, hi] a number must lie in; `lo_open` excludes lo.
struct ParamBound {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
};
inline constexpr ParamBound kAnyValue{};
inline constexpr ParamBound kPositive{0.0, std::numeric_limits<double>::infinity(), true};
inline constexpr ParamBound kNonNegative{0.0, std::numeric_limits<double>::infinity(), false};
constexpr ParamBound within(double lo, double hi) { return {lo, hi, false}; }

/// The one bool vocabulary: 1/true/on/yes and 0/false/off/no.
bool parse_bool(const std::string& text, bool* out);

/// The one `k=v,k=v` splitter. False + *error on an item without '=', an
/// empty key or a repeated key.
bool split_params(const std::string& text, std::map<std::string, std::string>* out,
                  std::string* error);

/// "unknown <where> '<key>' (known <where>s: <known>)".
std::string unknown_key(const std::string& where, const std::string& key,
                        const std::string& known);

/// A row less its field: what listings and messages read. The texts are
/// string literals, so building a table allocates nothing for them.
struct ParamRow {
  ParamRow(const char* row_key, ParamKind row_kind, ParamBound row_bound,
           const char* row_example, const char* row_help,
           std::vector<std::string> row_choices = {})
      : key(row_key),
        kind(row_kind),
        bound(row_bound),
        example(row_example),
        help(row_help),
        choices(std::move(row_choices)) {}

  const char* key = "";
  ParamKind kind = ParamKind::kString;
  ParamBound bound;
  const char* example = "";
  const char* help = "";
  std::vector<std::string> choices;  // kChoice: the accepted words

  /// The kind with its bound: "positive duration", "double in [0, 1]".
  std::string expected() const;
  /// True when `text` reads as this kind within the bound.
  bool admits(const std::string& text) const;
  /// True when a field's `value` lies in the bound (a choice: is one of the
  /// words; a string: is not empty).
  bool within(const ParamValue& value) const;
  /// `value` as the shortest text that sets it back.
  std::string write(const ParamValue& value) const;
  /// The one error shape for `key=value`, `key` as the user typed it.
  std::string invalid(const std::string& where, const std::string& key,
                      const std::string& value) const;
};

/// How a row reads and sets its field of T. `put` takes admitted text and
/// returns false, field untouched, when the value does not fit the field's
/// type.
template <typename T>
struct FieldAccess {
  ParamValue (*get)(const T& obj, const ParamRow& row) = nullptr;
  bool (*put)(T& obj, const std::string& text, const ParamRow& row) = nullptr;
};

namespace detail {

template <typename C, typename F>
C class_of(F C::*);  // unevaluated: the struct a member pointer points into

// A field of type F as a value, and back from admitted text: bool, an
// integer, double, std::optional<double>, std::string, or an enum whose
// values index the row's choices.
template <typename F>
ParamValue value_of(const F& value, const ParamRow& row) {
  if constexpr (std::is_enum_v<F>) {
    const auto index = static_cast<std::size_t>(value);
    return index < row.choices.size() ? row.choices[index] : std::string();
  } else if constexpr (std::is_same_v<F, std::optional<double>>) {
    return value ? ParamValue(*value) : ParamValue();
  } else if constexpr (std::is_integral_v<F> && !std::is_same_v<F, bool>) {
    return static_cast<std::conditional_t<std::is_signed_v<F>, std::int64_t, std::uint64_t>>(value);
  } else {
    return value;  // bool, double, std::string
  }
}

template <typename F>
bool read_into(const std::string& text, const ParamRow& row, F& target) {
  if constexpr (std::is_enum_v<F>) {
    const auto it = std::find(row.choices.begin(), row.choices.end(), text);
    if (it == row.choices.end()) return false;
    target = static_cast<F>(it - row.choices.begin());
  } else if constexpr (std::is_same_v<F, std::optional<double>>) {
    double value = 0.0;
    if (!parse_finite_double(text, &value)) return false;
    target = value;
  } else if constexpr (std::is_same_v<F, bool>) {
    return parse_bool(text, &target);
  } else if constexpr (std::is_integral_v<F>) {
    Bytes bytes = 0;
    if (row.kind != ParamKind::kBytes) return parse_integer(text, &target);
    if (!parse_bytes(text, &bytes) || !std::in_range<F>(bytes)) return false;
    target = static_cast<F>(bytes);
  } else if constexpr (std::is_same_v<F, double>) {
    return row.kind == ParamKind::kDuration ? parse_duration(text, &target)
                                            : parse_finite_double(text, &target);
  } else {
    target = text;
  }
  return true;
}

template <auto First, auto... Rest>
struct Field {
  using Class = decltype(class_of(First));
  static ParamValue get(const Class& obj, const ParamRow& row) {
    return value_of(((obj.*First) .* ... .* Rest), row);
  }
  static bool put(Class& obj, const std::string& text, const ParamRow& row) {
    return read_into(text, row, ((obj.*First) .* ... .* Rest));
  }
};

}  // namespace detail

/// The accessors of the field obj.*first.*rest... (a chain reaches into
/// nested structs).
template <auto First, auto... Rest>
inline constexpr FieldAccess<typename detail::Field<First, Rest...>::Class> field{
    &detail::Field<First, Rest...>::get, &detail::Field<First, Rest...>::put};

/// A row bound to the field of T it sets.
template <typename T>
struct Param : ParamRow {
  Param(ParamRow row, FieldAccess<T> field_access)
      : ParamRow(std::move(row)), access(field_access) {}
  Param(const char* key, FieldAccess<T> field_access, ParamKind kind, ParamBound bound,
        const char* example, const char* help, std::vector<std::string> choices = {})
      : ParamRow(key, kind, bound, example, help, std::move(choices)), access(field_access) {}

  FieldAccess<T> access;
};

/// The untyped face of a table: its rows and their defaults.
class ParamList {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  const std::vector<ParamRow>& rows() const { return rows_; }
  /// Each row's field in the table's defaults.
  const std::vector<ParamValue>& default_values() const { return default_values_; }
  /// The row of `key`, or npos.
  std::size_t find(const std::string& key) const;
  /// "a, b, c" in table order.
  std::string keys() const;
  /// One line per row: key, expected kind, default ("-" when the default is
  /// outside the bound, i.e. unset) and help.
  std::string listing() const;

 protected:
  /// `k=v,k=v` of the rows whose value differs from the default.
  std::string print(const std::vector<ParamValue>& values) const;

  std::vector<ParamRow> rows_;
  std::vector<ParamValue> default_values_;
};

/// A table over the fields of T, with the T every parse starts from. Built
/// once and read-only afterwards, so threads may share it.
template <typename T>
class ParamTable : public ParamList {
 public:
  explicit ParamTable(std::vector<Param<T>> params, T defaults = T{})
      : defaults_(std::move(defaults)) {
    for (Param<T>& param : params) {
      default_values_.push_back(param.access.get(defaults_, param));
      access_.push_back(param.access);
      rows_.push_back(std::move(param));
    }
  }

  const T& defaults() const { return defaults_; }

  /// Reads `text` into row `row`'s field of *obj. False, *obj untouched, when
  /// the text is malformed, out of bounds or does not fit the field.
  bool set(std::size_t row, const std::string& text, T* obj) const {
    return rows_[row].admits(text) && access_[row].put(*obj, text, rows_[row]);
  }

  /// Sets every `key=value` of `values`; on an unknown key or a bad value
  /// stops with *error (`where` names the knob: "param", "key").
  bool apply(const std::map<std::string, std::string>& values, T* obj, const std::string& where,
             std::string* error) const {
    for (const auto& [key, text] : values) {
      const std::size_t row = find(key);
      if (row != npos && set(row, text, obj)) continue;
      if (error) {
        *error =
            row == npos ? unknown_key(where, key, keys()) : rows_[row].invalid(where, key, text);
      }
      return false;
    }
    return true;
  }

  /// The rows whose field differs from the defaults, as `k=v,k=v` in table
  /// order; apply() of it onto the defaults gives `obj` back.
  std::string print(const T& obj) const { return ParamList::print(values(obj)); }

  /// Checks each field that differs from its default against its row.
  bool check(const T& obj, const std::string& where, std::string* error) const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const ParamValue value = access_[i].get(obj, rows_[i]);
      if (value == default_values_[i] || rows_[i].within(value)) continue;
      if (error) *error = rows_[i].invalid(where, rows_[i].key, rows_[i].write(value));
      return false;
    }
    return true;
  }

 private:
  std::vector<ParamValue> values(const T& obj) const {
    std::vector<ParamValue> out;
    for (std::size_t i = 0; i < rows_.size(); ++i) out.push_back(access_[i].get(obj, rows_[i]));
    return out;
  }

  std::vector<FieldAccess<T>> access_;
  T defaults_;
};

}  // namespace vrc::util
