// Package obs is the fixture stub of the observability layer.
package obs

import (
	"context"
	"log/slog"
	"time"
)

// EventType enumerates lifecycle events.
type EventType string

// Event types mirrored from the real package.
const (
	JobSubmitted     EventType = "job_submitted"
	JobFinished      EventType = "job_finished"
	PhaseStart       EventType = "phase_start"
	PhaseEnd         EventType = "phase_end"
	AttemptStarted   EventType = "attempt_started"
	AttemptSucceeded EventType = "attempt_succeeded"
	AttemptFailed    EventType = "attempt_failed"
	AttemptKilled    EventType = "attempt_killed"
	SpanStart        EventType = "span_start"
	SpanEnd          EventType = "span_end"
)

// Event is one lifecycle event.
type Event struct {
	Type     EventType
	Time     time.Time
	Job      string
	Parent   string
	Span     string
	Phase    string
	Task     string
	Attempt  int
	Node     string
	Locality string
	Backup   bool
	Dur      time.Duration
	Value    int64
	Err      string
	Detail   string
}

// Bus mirrors the event bus.
type Bus struct{}

// Emit mirrors Bus.Emit.
func (b *Bus) Emit(e Event) {}

// Active mirrors Bus.Active.
func (b *Bus) Active() bool { return false }

// FS mirrors the minimal file-store interface.
type FS interface {
	Create(path string, data []byte, localNode string) error
	List(dir string) []string
	ReadAll(path string) ([]byte, error)
}

// StatusServer mirrors the cluster status HTTP server.
type StatusServer struct{}

// Close mirrors StatusServer.Close.
func (s *StatusServer) Close() error { return nil }

// Shutdown mirrors StatusServer.Shutdown.
func (s *StatusServer) Shutdown(ctx context.Context) error { return nil }

// NewLevelLogger mirrors the slog handler constructor.
func NewLevelLogger(level string) (*slog.Logger, error) { return nil, nil }
