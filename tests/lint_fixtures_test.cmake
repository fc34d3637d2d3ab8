# Self-test for gef_lint's passes: run the linter against the planted-
# violation corpus (tests/lint_fixtures) and assert every pass flags
# exactly the planted file:line — no silent pass, no collateral noise.
#
# Invoked as a ctest:
#   cmake -DLINT_BIN=<gef_lint> -DFIXTURES=<tests/lint_fixtures>
#         -P lint_fixtures_test.cmake

if(NOT LINT_BIN OR NOT FIXTURES)
  message(FATAL_ERROR "usage: cmake -DLINT_BIN=... -DFIXTURES=... -P lint_fixtures_test.cmake")
endif()

execute_process(
  COMMAND "${LINT_BIN}" "${FIXTURES}"
  RESULT_VARIABLE exit_code
  ERROR_VARIABLE stderr
  OUTPUT_VARIABLE stdout)

if(NOT exit_code EQUAL 1)
  message(FATAL_ERROR
    "gef_lint on the fixture corpus must exit 1 (violations found), got "
    "${exit_code}.\nstderr:\n${stderr}")
endif()

# One entry per planted violation: file-suffix:line + the rule tag that
# must appear on the same diagnostic line.
set(expected
  "src/util/upward_include.h:5: \\[gef-layer-order\\]"
  "src/quantum/unranked.cc:1: \\[gef-layer-unknown\\]"
  "src/gam/raw_mutex.cc:6: \\[gef-raw-mutex\\]"
  "src/data/wall_time.cc:5: \\[gef-wall-time\\]"
  "src/forest/calls_rand.cc:5: \\[gef-raw-rand\\]"
  "src/surrogate/upward_into_gef.cc:4: \\[gef-layer-order\\]"
  "src/serve/reaches_gam.cc:4: \\[gef-gam-boundary\\]"
  "src/gef/raw_file_write.cc:5: \\[gef-raw-file-io\\]")

foreach(pattern IN LISTS expected)
  if(NOT stderr MATCHES "${pattern}")
    message(FATAL_ERROR
      "planted violation not flagged: expected a diagnostic matching "
      "'${pattern}'.\nstderr:\n${stderr}")
  endif()
endforeach()

# The near-miss file exercises every boundary condition; any diagnostic
# there is a false positive.
if(stderr MATCHES "clean_near_miss")
  message(FATAL_ERROR
    "false positive in the clean near-miss fixture.\nstderr:\n${stderr}")
endif()

# Exactly the planted set: 8 violations, nothing else.
if(NOT stderr MATCHES "gef_lint: 8 violation\\(s\\)")
  message(FATAL_ERROR
    "expected exactly 8 violations in the corpus.\nstderr:\n${stderr}")
endif()

message(STATUS "gef_lint fixture self-test passed: 8/8 planted violations flagged, near-miss clean")
