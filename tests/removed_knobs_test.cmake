# ion_daemon must reject the knobs that stall_ms= and degraded_depth= replaced
# with exit code 2 and the unknown-knob error, so a stale launch script fails
# instead of silently running with defaults. The daemon exits before it binds
# the socket. Run as: cmake -DDAEMON=<ion_daemon> -DSOCK=<path> -P <this file>
foreach(knob bml_wait_ms=5 bb_stall_ms=5 degraded_high=4 degraded_low=1)
  string(REGEX MATCH "^[a-z_]+" name "${knob}")
  execute_process(COMMAND "${DAEMON}" "${SOCK}" "root=${SOCK}.d" "${knob}"
                  TIMEOUT 10 RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "error: unknown knob '${name}'")
    message(FATAL_ERROR "ion_daemon ${knob}: exit ${rc}, stderr: ${err}")
  endif()
endforeach()
