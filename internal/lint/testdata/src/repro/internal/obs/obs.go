// Package obs is the fixture stub of the observability layer.
package obs

import (
	"context"
	"log/slog"
)

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
