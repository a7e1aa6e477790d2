// R1 negative: the configuration parser is the one file allowed to read
// the environment.
#include <cstdlib>

extern char** environ;

const char* r1_parser_reads(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : environ[0];
}
