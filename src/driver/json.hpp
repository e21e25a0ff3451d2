/**
 * @file
 * Minimal JSON document builder for machine-readable experiment output.
 *
 * Write-only by design: the driver emits results, it never parses them.
 * Object keys keep insertion order and numbers are formatted through one
 * fixed code path, so a document built from the same values is always
 * byte-identical — the property the sweep-determinism guarantee
 * (same seed ⇒ identical output, any thread count) rests on.
 */

#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace awb::driver {

/** A JSON value: null, bool, integer, double, string, array or object. */
class Json
{
  public:
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    // One constructor per distinct builtin integer type: std::int64_t,
    // std::uint64_t and std::size_t alias different builtins per platform,
    // so spelling the builtins avoids duplicate-overload errors.
    Json(int v) : type_(Type::Int), int_(v) {}
    Json(long v) : type_(Type::Int), int_(v) {}
    Json(long long v) : type_(Type::Int), int_(v) {}
    Json(unsigned v)
        : type_(Type::Int), uint_(true), int_(static_cast<std::int64_t>(v)) {}
    Json(unsigned long v)
        : type_(Type::Int), uint_(true), int_(static_cast<std::int64_t>(v)) {}
    Json(unsigned long long v)
        : type_(Type::Int), uint_(true), int_(static_cast<std::int64_t>(v)) {}
    Json(double v) : type_(Type::Double), dbl_(v) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    /** An array of `items`, in order. */
    template <typename T>
    static Json
    array(const std::vector<T> &items)
    {
        Json j = array();
        for (const T &v : items) j.push(v);
        return j;
    }

    /** An object of `members`, in order. */
    static Json
    object(std::initializer_list<std::pair<std::string, Json>> members)
    {
        Json j = object();
        for (const auto &[key, value] : members) j.set(key, value);
        return j;
    }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }

    /** Append to an array (converts a null value to an array first). */
    void push(Json v);

    /** Insert-or-overwrite a key (converts a null value to an object).
     *  New keys are appended, preserving insertion order on output. */
    Json &set(const std::string &key, Json v);

    /** Object member access; creates a null member if absent. */
    Json &operator[](const std::string &key);

    std::size_t size() const;

    /** Serialize. indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    bool uint_ = false;  ///< render int_'s bits as unsigned decimal
    std::int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** The one number-to-text path used for every JSON double. */
std::string jsonNumber(double v);

} // namespace awb::driver
