package jstore

// AppendRecordJSON exposes the line encoder to the external test package,
// which imports compare for its policy names (compare imports jstore).
var AppendRecordJSON = appendRecordJSON
