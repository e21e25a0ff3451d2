#include "common/log.hpp"

#include <cstdio>
#include <cstdlib>

namespace awb {

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "[error] fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "[error] panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "[warn] %s\n", msg.c_str());
}

} // namespace awb
