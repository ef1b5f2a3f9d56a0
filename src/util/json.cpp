#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace mecsc::util {

namespace {
[[noreturn]] void type_error(const char* want) {
  throw JsonError(std::string("json: value is not ") + want);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  type_error("a bool");
}

double JsonValue::as_number() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  type_error("a number");
}

const std::string& JsonValue::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  type_error("a string");
}

const JsonArray& JsonValue::as_array() const {
  if (const auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_error("an array");
}

const JsonObject& JsonValue::as_object() const {
  if (const auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_error("an object");
}

JsonArray& JsonValue::as_array() {
  if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_error("an array");
}

JsonObject& JsonValue::as_object() {
  if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_error("an object");
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonObject& o = as_object();
  const auto it = o.find(key);
  if (it == o.end()) throw JsonError("json: missing key '" + key + "'");
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  const auto* o = std::get_if<JsonObject>(&value_);
  return o != nullptr && o->count(key) > 0;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void json_append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void json_append_number(std::string& out, double d) {
  if (!std::isfinite(d)) throw JsonError("json: non-finite number");
  char buf[32];
  // Integers are emitted without a fractional part for readability.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  out += buf;
}

namespace {

struct Dumper {
  std::string os;
  int indent;

  void newline(int depth) {
    if (indent <= 0) return;
    os += '\n';
    os.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  void dump(const JsonValue& v, int depth) {
    if (v.is_null()) {
      os += "null";
    } else if (v.is_bool()) {
      os += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
      json_append_number(os, v.as_number());
    } else if (v.is_string()) {
      json_append_escaped(os, v.as_string());
    } else if (v.is_array()) {
      const JsonArray& a = v.as_array();
      if (a.empty()) {
        os += "[]";
        return;
      }
      os += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) os += ',';
        newline(depth + 1);
        dump(a[i], depth + 1);
      }
      newline(depth);
      os += ']';
    } else {
      const JsonObject& o = v.as_object();
      if (o.empty()) {
        os += "{}";
        return;
      }
      os += '{';
      bool first = true;
      for (const auto& [key, val] : o) {
        if (!first) os += ',';
        first = false;
        newline(depth + 1);
        json_append_escaped(os, key);
        os += indent > 0 ? ": " : ":";
        dump(val, depth + 1);
      }
      newline(depth);
      os += '}';
    }
  }
};

}  // namespace

std::string JsonValue::dump(int indent) const {
  Dumper d;
  d.indent = indent;
  d.dump(*this, 0);
  return std::move(d.os);
}

}  // namespace mecsc::util
