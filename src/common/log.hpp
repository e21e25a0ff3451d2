/**
 * @file
 * Error and warning reporting for the simulator and benches.
 *
 * Follows the gem5 fatal()/panic()/warn() split: fatal() is a user
 * error (bad configuration) and exits cleanly; panic() is an internal
 * invariant violation and aborts. Each writes one tagged line to
 * stderr.
 */

#pragma once

#include <string>

namespace awb {

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation and abort(). */
[[noreturn]] void panic(const std::string &msg);

/** Report a suspicious-but-survivable condition. */
void warn(const std::string &msg);

} // namespace awb
