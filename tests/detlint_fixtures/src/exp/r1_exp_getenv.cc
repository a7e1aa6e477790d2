// R1 positive: the exp layer is not exempt — only src/exp/run_config.cc
// may read the environment.
#include <cstdlib>

extern char** environ;

const char* r1_exp_getenv() {
  const char* jobs = std::getenv("NIMBUS_JOBS");  // R1: getenv
  return jobs != nullptr ? jobs : environ[0];     // R1: environ
}
