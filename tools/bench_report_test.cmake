# Smoke test for bench_report: emit a scaled-down report with a JSONL
# trace, then validate the report against the schema and sanity-check
# the trace. Mirrors the CI bench-report job. Three negative/merge cases
# follow: a report that cannot be written must fail the run, --validate
# must reject a report that is not strict JSON, and a --serving merge
# must escape the strings it carries over.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(REPORT ${WORK_DIR}/BENCH_PR10.json)
set(TRACE ${WORK_DIR}/trace.jsonl)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env GEF_TRACE=${TRACE}
          ${BENCH_REPORT_BIN} --smoke --out ${REPORT}
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_error)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR
      "bench_report --smoke failed (${run_result}):\n"
      "${run_output}\n${run_error}")
endif()

execute_process(
  COMMAND ${BENCH_REPORT_BIN} --validate ${REPORT}
  RESULT_VARIABLE validate_result
  OUTPUT_VARIABLE validate_output
  ERROR_VARIABLE validate_error)
if(NOT validate_result EQUAL 0)
  message(FATAL_ERROR
      "bench_report --validate failed (${validate_result}):\n"
      "${validate_output}\n${validate_error}")
endif()

# The JSONL trace must exist and contain spans for the core pipeline
# stages of both workloads.
if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR "GEF_TRACE file was not written: ${TRACE}")
endif()
file(READ ${TRACE} trace_text)
foreach(span
    "forest.gbdt_train" "gef.feature_selection" "gef.sampling_domains"
    "gef.dstar_draw" "gef.dstar_label" "gef.interaction_selection"
    "gam.fit" "explain.treeshap" "explain.pdp_1d")
  string(FIND "${trace_text}" "\"name\":\"${span}\"" span_pos)
  if(span_pos EQUAL -1)
    message(FATAL_ERROR "trace is missing span '${span}': ${TRACE}")
  endif()
endforeach()

# A report that cannot be written is a failure, not a "wrote" line.
execute_process(
  COMMAND ${BENCH_REPORT_BIN} --smoke --out ${WORK_DIR}/missing/r.json
  RESULT_VARIABLE unwritable_result
  OUTPUT_VARIABLE unwritable_output
  ERROR_VARIABLE unwritable_error)
if(unwritable_result EQUAL 0)
  message(FATAL_ERROR
      "bench_report exited 0 writing into a missing directory:\n"
      "${unwritable_output}\n${unwritable_error}")
endif()

# A value that is not a JSON number must fail --validate, not be read as
# its numeric prefix ("1-2" is not 1).
file(READ ${REPORT} report_text)
string(REGEX REPLACE "\"num_threads\": [0-9]+" "\"num_threads\": 1-2"
       bad_text "${report_text}")
if(bad_text STREQUAL report_text)
  message(FATAL_ERROR "no num_threads field to corrupt in ${REPORT}")
endif()
set(BAD_REPORT ${WORK_DIR}/BENCH_BAD_NUMBER.json)
file(WRITE ${BAD_REPORT} "${bad_text}")
execute_process(
  COMMAND ${BENCH_REPORT_BIN} --validate ${BAD_REPORT}
  RESULT_VARIABLE bad_result
  OUTPUT_VARIABLE bad_output
  ERROR_VARIABLE bad_error)
if(bad_result EQUAL 0)
  message(FATAL_ERROR
      "bench_report --validate accepted \"num_threads\": 1-2:\n"
      "${bad_output}\n${bad_error}")
endif()

# A serving workload (shaped like a gef_loadgen --out report) whose name
# carries a quote and a backslash must survive the --serving merge: the
# merged report has to pass --validate with the name intact.
set(SERVING ${WORK_DIR}/loadgen-quoted.json)
file(WRITE ${SERVING} [=[{
  "schema": "gef-bench-v1",
  "pr": "PR9",
  "smoke": false,
  "num_threads": 1,
  "workloads": [
    {
      "name": "serving_\"quoted\"_\\name",
      "serving": {
        "endpoint": "predict",
        "mode": "closed-loop",
        "connections": 1,
        "duration_s": 1,
        "requests": 120,
        "errors": 0,
        "qps": 120,
        "latency_p50_ms": 0.25,
        "latency_p90_ms": 0.5,
        "latency_p99_ms": 1.5
      }
    }
  ]
}
]=])
set(MERGED ${WORK_DIR}/BENCH_MERGED.json)
execute_process(
  COMMAND ${BENCH_REPORT_BIN} --smoke --serving ${SERVING} --out ${MERGED}
  RESULT_VARIABLE merge_result
  OUTPUT_VARIABLE merge_output
  ERROR_VARIABLE merge_error)
if(NOT merge_result EQUAL 0)
  message(FATAL_ERROR
      "bench_report --smoke --serving failed (${merge_result}):\n"
      "${merge_output}\n${merge_error}")
endif()
execute_process(
  COMMAND ${BENCH_REPORT_BIN} --validate ${MERGED}
  RESULT_VARIABLE merged_result
  OUTPUT_VARIABLE merged_output
  ERROR_VARIABLE merged_error)
if(NOT merged_result EQUAL 0)
  message(FATAL_ERROR
      "merged report with an escaped serving name fails --validate "
      "(${merged_result}):\n${merged_output}\n${merged_error}")
endif()
file(READ ${MERGED} merged_text)
string(FIND "${merged_text}" [=["serving_\"quoted\"_\\name"]=] name_pos)
if(name_pos EQUAL -1)
  message(FATAL_ERROR "merged report lost the escaped serving name: ${MERGED}")
endif()

message(STATUS "bench_report smoke ok: ${REPORT}")
