# Integration test for the CLI tools: walks the full third-party
# workflow (generate data -> train a forest -> explain it -> save the
# explanation -> reload it and produce a local explanation) and fails on
# any non-zero exit or missing artifact.

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

run_step(${DATASETS_BIN} --name gprime --out ${WORK_DIR}/train.csv
         --rows 1500 --seed 5)
run_step(${TRAIN_BIN} --data ${WORK_DIR}/train.csv
         --out ${WORK_DIR}/forest.txt --trees 40 --leaves 8)
if(NOT EXISTS ${WORK_DIR}/forest.txt)
  message(FATAL_ERROR "gef_train produced no model file")
endif()

run_step(${EXPLAIN_BIN} --model ${WORK_DIR}/forest.txt --summary)
# GEF_TRACE makes the CLI write its pipeline spans as JSONL at exit.
file(REMOVE ${WORK_DIR}/trace.jsonl)
run_step(${CMAKE_COMMAND} -E env GEF_TRACE=${WORK_DIR}/trace.jsonl
         ${EXPLAIN_BIN} --model ${WORK_DIR}/forest.txt
         --univariate 4 --samples 2000 --k 24
         --curves ${WORK_DIR}/curves.csv
         --save ${WORK_DIR}/explanation.txt
         --probe ${WORK_DIR}/train.csv)
foreach(artifact curves.csv explanation.txt trace.jsonl)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "missing artifact: ${artifact}")
  endif()
endforeach()
file(READ ${WORK_DIR}/trace.jsonl trace_text)
foreach(span "gef.dstar_label" "gam.fit")
  string(FIND "${trace_text}" "\"name\":\"${span}\"" span_pos)
  if(span_pos EQUAL -1)
    message(FATAL_ERROR "trace is missing span '${span}'")
  endif()
endforeach()

# Reload path skips the pipeline and must still explain an instance.
run_step(${EXPLAIN_BIN} --model ${WORK_DIR}/forest.txt
         --load ${WORK_DIR}/explanation.txt
         --explain "0.5,0.5,0.5,0.5,0.5")

# Classification path: census data -> binary forest -> explanation.
run_step(${DATASETS_BIN} --name census --out ${WORK_DIR}/census.csv
         --rows 1500 --seed 9)
run_step(${TRAIN_BIN} --data ${WORK_DIR}/census.csv
         --out ${WORK_DIR}/census_forest.txt --objective binary
         --trees 30 --leaves 8)
run_step(${EXPLAIN_BIN} --model ${WORK_DIR}/census_forest.txt
         --univariate 3 --samples 1500 --k 16
         --sampling k-quantile)

# Random Forest path.
run_step(${TRAIN_BIN} --data ${WORK_DIR}/train.csv
         --out ${WORK_DIR}/rf.txt --algo rf --trees 20 --leaves 16)
run_step(${EXPLAIN_BIN} --model ${WORK_DIR}/rf.txt --summary)

# Bad usage must fail cleanly.
execute_process(COMMAND ${EXPLAIN_BIN} --model ${WORK_DIR}/forest.txt
                --no-such-flag 1 RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "unknown flag was not rejected")
endif()

# An invalid pipeline config is a usage error (exit 1), not an abort.
foreach(bad_flag "--univariate;0" "--samples;-1")
  execute_process(COMMAND ${EXPLAIN_BIN} --model ${WORK_DIR}/forest.txt
                  ${bad_flag} RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR
      "gef_explain ${bad_flag} must exit 1, got ${code}:\n${err}")
  endif()
endforeach()

message(STATUS "CLI pipeline test passed")
