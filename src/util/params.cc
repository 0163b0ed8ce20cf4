#include "util/params.h"

#include <charconv>

namespace vrc::util {

namespace {

// The shortest text of `number` that parses back to it: fixed notation when
// it fits the buffer, else scientific.
std::string shortest_text(double number) {
  char buffer[32];
  std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof buffer, number, std::chars_format::fixed);
  if (result.ec != std::errc()) result = std::to_chars(buffer, buffer + sizeof buffer, number);
  return std::string(buffer, result.ptr);
}

// `bytes` in the largest binary unit that divides it: "384MB".
std::string bytes_text(Bytes bytes) {
  for (const auto& [unit, size] : {std::pair{"GB", kGiB}, {"MB", kMiB}, {"KB", kKiB}}) {
    if (bytes != 0 && bytes % size == 0) return std::to_string(bytes / size) + unit;
  }
  return std::to_string(bytes);
}

}  // namespace

bool parse_bool(const std::string& text, bool* out) {
  const bool yes = text == "1" || text == "true" || text == "on" || text == "yes";
  if (!yes && text != "0" && text != "false" && text != "off" && text != "no") return false;
  *out = yes;
  return true;
}

bool split_params(const std::string& text, std::map<std::string, std::string>* out,
                  std::string* error) {
  for (std::size_t start = 0;;) {
    const std::size_t end = std::min(text.find(',', start), text.size());
    const std::string item = text.substr(start, end - start);
    const std::size_t eq = item.find('=');
    std::string message;
    if (eq == std::string::npos) {
      message = "param '" + item + "' is not key=value";
    } else if (eq == 0) {
      message = "empty param key in '" + item + "'";
    } else if (!out->emplace(item.substr(0, eq), item.substr(eq + 1)).second) {
      message = "duplicate param '" + item.substr(0, eq) + "'";
    } else if (end == text.size()) {
      return true;
    }
    if (!message.empty()) {
      if (error) *error = message;
      return false;
    }
    start = end + 1;
  }
}

std::string unknown_key(const std::string& where, const std::string& key,
                        const std::string& known) {
  return "unknown " + where + " '" + key + "' (" +
         (known.empty() ? "takes no " + where + "s)" : "known " + where + "s: " + known + ")");
}

std::string ParamRow::expected() const {
  static constexpr const char* kNames[] = {"bool",     "int",   "uint64", "double",
                                           "duration", "bytes", "",       "non-empty string"};
  std::string name = kNames[static_cast<std::size_t>(kind)];
  for (std::size_t i = 0; i < choices.size(); ++i) {
    name += (i == 0 ? "" : i + 1 == choices.size() ? " or " : ", ") + choices[i];
  }
  const bool open_above = bound.hi == std::numeric_limits<double>::infinity();
  if (bound.lo == 0.0 && open_above) return (bound.lo_open ? "positive " : "non-negative ") + name;
  if (bound.lo == -std::numeric_limits<double>::infinity()) return name;
  return name + " in " + (bound.lo_open ? "(" : "[") + shortest_text(bound.lo) + ", " +
         (open_above ? "inf)" : shortest_text(bound.hi) + "]");
}

bool ParamRow::admits(const std::string& text) const {
  // Reads the value the bound checks; an integer's own type is checked when
  // it is set.
  bool flag = false;
  Bytes bytes = 0;
  double number = 0.0;
  switch (kind) {
    case ParamKind::kBool:
      return parse_bool(text, &flag);
    case ParamKind::kBytes:
      return parse_bytes(text, &bytes) && within(bytes);
    case ParamKind::kDuration:
      return parse_duration(text, &number) && within(number);
    case ParamKind::kInt:
    case ParamKind::kUint64:
    case ParamKind::kDouble:
      return parse_finite_double(text, &number) && within(number);
    case ParamKind::kChoice:
    case ParamKind::kString:
      break;
  }
  return within(text);
}

bool ParamRow::within(const ParamValue& value) const {
  if (const auto* text = std::get_if<std::string>(&value)) {
    if (kind == ParamKind::kString) return !text->empty();
    return std::find(choices.begin(), choices.end(), *text) != choices.end();
  }
  double number = 0.0;
  if (const auto* integer = std::get_if<std::int64_t>(&value)) {
    number = static_cast<double>(*integer);
  } else if (const auto* natural = std::get_if<std::uint64_t>(&value)) {
    number = static_cast<double>(*natural);
  } else if (const auto* real = std::get_if<double>(&value)) {
    number = *real;
  } else {
    return std::holds_alternative<bool>(value);  // an unset optional has no value
  }
  return (bound.lo_open ? number > bound.lo : number >= bound.lo) && number <= bound.hi;
}

std::string ParamRow::write(const ParamValue& value) const {
  if (const auto* flag = std::get_if<bool>(&value)) return *flag ? "1" : "0";
  if (const auto* integer = std::get_if<std::int64_t>(&value)) {
    return kind == ParamKind::kBytes ? bytes_text(*integer) : std::to_string(*integer);
  }
  if (const auto* natural = std::get_if<std::uint64_t>(&value)) return std::to_string(*natural);
  if (const auto* real = std::get_if<double>(&value)) return shortest_text(*real);
  const auto* text = std::get_if<std::string>(&value);
  return text ? *text : "";
}

std::string ParamRow::invalid(const std::string& where, const std::string& key,
                              const std::string& value) const {
  return where + " '" + key + "': invalid value '" + value + "' (expected " + expected() +
         ", e.g. " + key + "=" + example + ")";
}

std::size_t ParamList::find(const std::string& key) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].key == key) return i;
  }
  return npos;
}

std::string ParamList::keys() const {
  std::string out;
  for (const ParamRow& row : rows_) out.append(out.empty() ? "" : ", ").append(row.key);
  return out;
}

std::string ParamList::listing() const {
  const auto pad = [](std::string text, std::size_t width) {
    text.resize(std::max(text.size(), width), ' ');
    return text;
  };
  std::string out;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ParamRow& row = rows_[i];
    const ParamValue& value = default_values_[i];
    out += "  " + pad(row.key, 26) + " " + pad(row.expected(), 21) + " default " +
           pad(row.within(value) ? row.write(value) : "-", 8) + " " + row.help + "\n";
  }
  return out;
}

std::string ParamList::print(const std::vector<ParamValue>& values) const {
  std::string out;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (values[i] == default_values_[i]) continue;
    out.append(out.empty() ? "" : ",").append(rows_[i].key).append("=");
    out += rows_[i].write(values[i]);
  }
  return out;
}

}  // namespace vrc::util
