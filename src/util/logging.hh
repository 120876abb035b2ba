/**
 * @file
 * Status-message and error helpers in the spirit of gem5's logging.hh.
 *
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid argument); exits with code 1.
 * warn()   - something works but not as well as it should.
 * inform() - normal operating status for the user.
 */

#ifndef LECA_UTIL_LOGGING_HH
#define LECA_UTIL_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

namespace leca {

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Print an informational message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    std::cerr << "info: " << detail::concat(std::forward<Args>(args)...)
              << "\n";
}

/** Print a warning to stderr; execution continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    std::cerr << "warn: " << detail::concat(std::forward<Args>(args)...)
              << "\n";
}

/** Terminate with exit(1) due to a user-caused error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::cerr << "fatal: " << detail::concat(std::forward<Args>(args)...)
              << "\n";
    std::exit(1);
}

} // namespace leca

#endif // LECA_UTIL_LOGGING_HH
