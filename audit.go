package crowdtopk

import (
	"crowdtopk/internal/auditlog"
	"crowdtopk/internal/crowd"
)

// AuditLog is a durable, tamper-evident audit log directory open for
// writing: records stream off the purchase hot path through a bounded
// queue, segments rotate and seal under per-segment Merkle roots chained
// across the directory, and compaction folds concluded history into a
// checkpoint so resume cost tracks pairs touched rather than microtasks
// ever purchased. See internal/auditlog for the format.
type AuditLog = auditlog.Log

// AuditLogOptions tunes segment rotation, the fsync policy and the
// commit queue of an AuditLog. The zero value selects sane defaults.
type AuditLogOptions = auditlog.Options

// AuditSyncPolicy selects when the audit log fsyncs committed batches.
type AuditSyncPolicy = auditlog.SyncPolicy

const (
	// AuditSyncAlways fsyncs every committed batch.
	AuditSyncAlways = auditlog.SyncAlways
	// AuditSyncInterval fsyncs on a timer while dirty (the default).
	AuditSyncInterval = auditlog.SyncIntervalPolicy
	// AuditSyncOff leaves batch durability to the OS page cache.
	AuditSyncOff = auditlog.SyncOff
)

// ErrAuditLogLocked reports that another process holds an audit-log
// directory's writer lock; detect with errors.Is.
var ErrAuditLogLocked = auditlog.ErrLogLocked

// TaskRecordSink is a session's audit trail: it receives each batch of
// microtask records synchronously in purchase order (see
// crowd.RecordSink for the contract).
type TaskRecordSink = crowd.RecordSink

// AuditVerifyReport is the outcome of auditing an audit-log directory:
// overall verdict, per-file verdicts, and — when tampering is found —
// the first damaged file in chain order.
type AuditVerifyReport = auditlog.VerifyReport

// ParseAuditSyncPolicy maps a flag string ("always", "interval", "off")
// onto an AuditSyncPolicy.
func ParseAuditSyncPolicy(s string) (AuditSyncPolicy, error) { return auditlog.ParseSyncPolicy(s) }

// OpenAuditLog opens (creating or crash-recovering) a persistent audit
// log directory for writing. Attach it to a session with SetAuditSink.
func OpenAuditLog(dir string, o AuditLogOptions) (*AuditLog, error) { return auditlog.Open(dir, o) }

// LoadAuditLog reads a directory's full replayable history — checkpoint
// expansion plus segments — without locking or modifying it. The result
// feeds ReplayOracle or ResumeOracle directly.
func LoadAuditLog(dir string) ([]TaskRecord, error) { return auditlog.Load(dir) }

// VerifyAuditLog audits a directory's integrity against its manifest,
// localizing any damage to a specific file.
func VerifyAuditLog(dir string) (*AuditVerifyReport, error) { return auditlog.Verify(dir) }

// NewAuditResumeSink wraps log for a session resumed from prior (the
// records LoadAuditLog returned, also fed to ResumeOracle): the replayed
// prefix of each pair's stream is suppressed and only live purchases are
// appended, so the directory grows by exactly the new spend.
func NewAuditResumeSink(log *AuditLog, prior []TaskRecord) TaskRecordSink {
	return auditlog.NewResumeSink(log, prior)
}

// SetAuditSink makes sink the session's audit trail: every microtask the
// session purchases from now on is streamed into it, synchronously at
// purchase time. It replaces the trail attached before — an in-memory
// one from EnableAuditLog included — so no record is also kept in
// memory and AuditLog reads nil; AuditLen keeps counting. Use an
// *AuditLog as the sink for durable logging, or NewAuditResumeSink when
// the session was resumed from that log's own history. nil detaches the
// trail.
func (s *Session) SetAuditSink(sink TaskRecordSink) { s.runner.Engine().SetLogSink(sink) }
